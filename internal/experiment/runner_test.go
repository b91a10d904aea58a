package experiment

import (
	"bytes"
	"strings"
	"testing"

	"adamant/internal/core"
	"adamant/internal/metrics"
)

// TestRunManyMatchesSerial checks that the worker pool returns exactly what
// sequential Run calls return, in input order, at a width that forces
// interleaving.
func TestRunManyMatchesSerial(t *testing.T) {
	var cfgs []Config
	for i, proto := range []int{0, 3, 4, 5} {
		cfg := Config{Receivers: 2 + i, RateHz: 50, Samples: 150, LossPct: float64(i), Seed: int64(10 + i)}
		cfg.Protocol = core.Candidates()[proto]
		cfgs = append(cfgs, cfg)
	}
	want := make([]metrics.Summary, len(cfgs))
	for i, cfg := range cfgs {
		s, err := Run(cfg)
		if err != nil {
			t.Fatalf("serial run %d: %v", i, err)
		}
		want[i] = s
	}
	got, err := (&Runner{Jobs: 4}).RunMany(cfgs)
	if err != nil {
		t.Fatalf("RunMany: %v", err)
	}
	for i := range cfgs {
		if got[i] != want[i] {
			t.Errorf("config %d: parallel %v != serial %v", i, got[i], want[i])
		}
	}
}

// TestBuildDatasetParallelByteIdentical is the engine's core contract: the
// training-set CSV is byte-for-byte identical whether the combo x candidate
// x run product runs on one worker or eight.
func TestBuildDatasetParallelByteIdentical(t *testing.T) {
	opts := DatasetOptions{Combos: 32, Runs: 1, Samples: 120, Seed: 11}
	serial := opts
	serial.Jobs = 1
	parallel := opts
	parallel.Jobs = 8

	rowsSerial, err := BuildDataset(serial)
	if err != nil {
		t.Fatalf("BuildDataset jobs=1: %v", err)
	}
	rowsParallel, err := BuildDataset(parallel)
	if err != nil {
		t.Fatalf("BuildDataset jobs=8: %v", err)
	}
	var bufSerial, bufParallel bytes.Buffer
	if err := WriteCSV(&bufSerial, rowsSerial); err != nil {
		t.Fatal(err)
	}
	if err := WriteCSV(&bufParallel, rowsParallel); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bufSerial.Bytes(), bufParallel.Bytes()) {
		t.Fatalf("dataset CSV differs between jobs=1 and jobs=8:\n--- jobs=1 ---\n%s\n--- jobs=8 ---\n%s",
			bufSerial.String(), bufParallel.String())
	}
}

// TestRunQoSFiguresParallelDeterminism checks the figure data is identical
// at different worker counts.
func TestRunQoSFiguresParallelDeterminism(t *testing.T) {
	run := func(jobs int) *QoSFigures {
		q, err := RunQoSFigures(QoSOptions{Samples: 150, Runs: 2, Seed: 3, Jobs: jobs})
		if err != nil {
			t.Fatalf("RunQoSFigures jobs=%d: %v", jobs, err)
		}
		return q
	}
	serial, parallel := run(1), run(4)
	for key, ss := range serial.data {
		ps := parallel.data[key]
		if len(ps) != len(ss) {
			t.Fatalf("cell %+v: %d runs parallel vs %d serial", key, len(ps), len(ss))
		}
		for i := range ss {
			if ss[i] != ps[i] {
				t.Errorf("cell %+v run %d: parallel %v != serial %v", key, i, ps[i], ss[i])
			}
		}
	}
}

// TestRunManyErrorCancelsPool checks that one failing config propagates its
// error and stops the pool from claiming the rest of the queue.
func TestRunManyErrorCancelsPool(t *testing.T) {
	cfgs := make([]Config, 64)
	for i := range cfgs {
		cfgs[i] = Config{Receivers: 2, RateHz: 50, Samples: 100, Seed: int64(i)}
	}
	cfgs[0].LossPct = 150 // invalid: Validate rejects loss > 100
	var calls int
	r := &Runner{Jobs: 2, Progress: func(done, total int) { calls = done }}
	if _, err := r.RunMany(cfgs); err == nil {
		t.Fatal("RunMany with an invalid config returned nil error")
	} else if !strings.Contains(err.Error(), "run 1 of 64") {
		t.Errorf("error %q does not identify the failing run", err)
	}
	if calls == len(cfgs) {
		t.Errorf("pool ran all %d configs despite the early failure", len(cfgs))
	}
}

// TestRunnerProgressSerialized checks Progress sees every completion with a
// strictly incrementing done count (the runner serializes the callback).
func TestRunnerProgressSerialized(t *testing.T) {
	cfgs := make([]Config, 9)
	for i := range cfgs {
		cfgs[i] = Config{Receivers: 2, RateHz: 100, Samples: 80, Seed: int64(i)}
	}
	var seen []int
	r := &Runner{Jobs: 3, Progress: func(done, total int) {
		if total != len(cfgs) {
			t.Errorf("total = %d, want %d", total, len(cfgs))
		}
		seen = append(seen, done)
	}}
	if _, err := r.RunMany(cfgs); err != nil {
		t.Fatalf("RunMany: %v", err)
	}
	if len(seen) != len(cfgs) {
		t.Fatalf("progress called %d times, want %d", len(seen), len(cfgs))
	}
	for i, d := range seen {
		if d != i+1 {
			t.Fatalf("progress sequence %v is not 1..%d", seen, len(cfgs))
		}
	}
}

// TestRunCandidatesJobsMatchesSerial checks the candidate x run product
// BuildDataset runs per combo: candidateConfigs is candidate-major, each
// candidate over RunN's seeds, and four workers reproduce the serial sweep.
func TestRunCandidatesJobsMatchesSerial(t *testing.T) {
	cfg := Config{Receivers: 3, RateHz: 25, Samples: 150, LossPct: 3, Seed: 9}
	seeds := runConfigs(cfg, 2)
	cfgs := candidateConfigs(cfg, 2)
	for i, c := range cfgs {
		if want := core.Candidates()[i/2]; c.Protocol.String() != want.String() || c.Seed != seeds[i%2].Seed {
			t.Errorf("config %d: %s seed %d, want %s seed %d", i, c.Protocol, c.Seed, want, seeds[i%2].Seed)
		}
	}
	serial, err := (&Runner{Jobs: 1}).RunMany(cfgs)
	if err != nil {
		t.Fatalf("serial RunMany: %v", err)
	}
	parallel, err := (&Runner{Jobs: 4}).RunMany(cfgs)
	if err != nil {
		t.Fatalf("parallel RunMany: %v", err)
	}
	for i, s := range serial {
		if p := parallel[i]; s != p {
			t.Errorf("candidate %d run %d: parallel %v != serial %v", i/2, i%2, p, s)
		}
	}
}
