package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

func TestMain(m *testing.M) {
	// The broker workloads start this binary again as their brokers.
	if len(os.Args) > 1 && os.Args[1] == "-role" {
		main()
		return
	}
	os.Exit(m.Run())
}

// TestSmoke runs every workload for about a second with every output check
// on and no bounds: it catches API drift in internal/ that would break the
// yardstick, not slowness.
func TestSmoke(t *testing.T) {
	repo, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	r := runner{exe: exe, seed: HeldOutSeed, seconds: smokeSeconds, repo: repo, smoke: true, outDir: t.TempDir()}
	for _, name := range workloadNames() {
		for _, traced := range []bool{false, true} {
			res, err := r.one(name, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Attempted == 0 {
				t.Errorf("%s traced=%v: %d of %d operations failed: %v", name, traced, res.Failed, res.Attempted, res.Detail)
			}
			if !traced {
				for name, v := range res.Metrics {
					if v.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, must be positive", res.Workload, name, v.Value)
					}
				}
			}
		}
	}
}

// TestBenchmarkJSONInSync keeps the contract file and the metric tables one
// thing: regenerate with `go run . -spec > ../BENCHMARK.json`.
func TestBenchmarkJSONInSync(t *testing.T) {
	onDisk, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, benchmarkJSON()) {
		t.Fatal("BENCHMARK.json differs from the tables in report/spec.go; run `go run . -spec > ../BENCHMARK.json`")
	}
}
