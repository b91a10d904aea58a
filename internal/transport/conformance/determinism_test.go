package conformance

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"adamant/internal/netem/chaos"
)

var update = flag.Bool("update", false, "rewrite the crucible golden hash and digest files")

const (
	goldenHashFile   = "testdata/crucible_hashes.txt"
	goldenDigestFile = "testdata/crucible_digests.txt"
)

// goldenCells is the fixed sub-matrix whose outcome hashes are pinned in
// testdata: every protocol through a calm run, a heavy partition, and
// permanent crashes — plus the full hot-swap matrix (calm switch, switch at
// loss peak, switch at partition heal, flapping) for every protocol.
func goldenCells() []CrucibleScenario {
	cells := CrucibleCells(
		DefaultCrucibleSpecs(),
		[]chaos.Scenario{chaos.CalmControl(), chaos.SplitBrain(), chaos.Cascade()},
		[]int64{1},
	)
	cells = append(cells, SwitchCells(DefaultCrucibleSpecs(), []int64{1})...)
	// Sharded-engine cells carry /shards=N in their Name and so get their
	// own golden lines; the classic corpus above is untouched. Width
	// invariance (TestCrucibleShardWidthInvariance) makes the worker count
	// recorded here arbitrary.
	sharded := CrucibleCells(
		DefaultCrucibleSpecs(),
		[]chaos.Scenario{chaos.CalmControl(), chaos.Cascade()},
		[]int64{1},
	)
	for i := range sharded {
		sharded[i].Shards = 4
	}
	return append(cells, sharded...)
}

// TestCrucibleJobsDeterminism pins that the worker-pool width changes
// wall-clock time only: the same cells run at -jobs 1 and -jobs 8 must
// produce byte-identical outcome hashes, cell for cell.
func TestCrucibleJobsDeterminism(t *testing.T) {
	cells := CrucibleCells(
		DefaultCrucibleSpecs(),
		[]chaos.Scenario{chaos.SplitBrain(), chaos.Churn()},
		[]int64{1},
	)
	cells = append(cells, SwitchCells(DefaultCrucibleSpecs(), []int64{1})...)
	serial := RunCrucibleMatrix(cells, 1, nil)
	wide := RunCrucibleMatrix(cells, 8, nil)
	for i := range cells {
		if serial[i].Err != nil || wide[i].Err != nil {
			t.Fatalf("%s: jobs=1 err=%v, jobs=8 err=%v", cells[i].Name(), serial[i].Err, wide[i].Err)
		}
		if serial[i].Hash != wide[i].Hash {
			t.Errorf("%s: hash differs across worker widths: jobs=1 %.12s, jobs=8 %.12s",
				cells[i].Name(), serial[i].Hash, wide[i].Hash)
		}
	}
}

// TestCrucibleGoldenHashes pins the exact outcome hash of a fixed cell
// sub-matrix against testdata. Any behavioral drift in the simulator, the
// netem fault knobs, the chaos engine, or a protocol implementation changes
// a hash and fails here; run with -update after an intentional change. The
// hashes decide; the readable digests written beside them only explain a
// drifted cell, printed as a line diff.
func TestCrucibleGoldenHashes(t *testing.T) {
	cells := goldenCells()
	var lines, digests []string
	got := make(map[string]string, len(cells))
	gotDigest := make(map[string]string, len(cells))
	for _, cs := range cells {
		out, err := ExecuteCrucible(cs)
		if err != nil {
			t.Fatalf("%s: %v", cs.Name(), err)
		}
		got[cs.Name()] = out.Hash
		gotDigest[cs.Name()] = digest(cs, out)
		lines = append(lines, fmt.Sprintf("%s %s", cs.Name(), out.Hash))
		digests = append(digests, gotDigest[cs.Name()])
	}
	if *update {
		if err := os.MkdirAll(filepath.Dir(goldenHashFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenHashFile, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenDigestFile, []byte(strings.Join(digests, "")), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d hashes to %s and their digests to %s", len(lines), goldenHashFile, goldenDigestFile)
		return
	}
	data, err := os.ReadFile(goldenHashFile)
	if err != nil {
		t.Fatalf("read golden (run with -update to generate): %v", err)
	}
	want := make(map[string]string)
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("malformed golden line %q", line)
		}
		want[fields[0]] = fields[1]
	}
	wantDigest := make(map[string]string)
	if data, err := os.ReadFile(goldenDigestFile); err == nil {
		for _, block := range strings.SplitAfter(string(data), "\n\n") {
			if name, _, ok := strings.Cut(block, "\n"); ok {
				wantDigest[strings.TrimPrefix(name, "cell ")] = block
			}
		}
	}
	if len(want) != len(got) {
		t.Errorf("golden file has %d cells, matrix has %d (run with -update)", len(want), len(got))
	}
	for name, h := range got {
		switch wantHash, ok := want[name]; {
		case !ok:
			t.Errorf("%s: no golden hash recorded (run with -update)", name)
		case wantHash != h:
			t.Errorf("%s: outcome drifted from golden: got %.16s, want %.16s\n%s",
				name, h, wantHash, lineDiff(wantDigest[name], gotDigest[name]))
		}
	}
}

// digest is a cell outcome's readable summary, one block per cell: the
// event count, then per receiver its counts (out-of-window packets among
// them), last seq, virtual latency quantiles, membership view version and
// epoch chain.
func digest(cs CrucibleScenario, out CrucibleOutcome) string {
	var b strings.Builder
	fmt.Fprintf(&b, "cell %s\nevents %d\n", cs.Name(), out.Events)
	for i, ds := range out.Deliveries {
		st := out.Stats[i]
		var last uint64
		lat := make([]time.Duration, len(ds))
		for j, d := range ds {
			last = max(last, d.Seq)
			lat[j] = d.Latency()
		}
		slices.Sort(lat)
		q := func(p int) time.Duration {
			if len(lat) == 0 {
				return 0
			}
			return lat[(len(lat)-1)*p/100]
		}
		fmt.Fprintf(&b, "receiver %d delivered=%d recovered=%d lost=%d dups=%d oow=%d maxbuf=%d last=%d p50=%v p99=%v max=%v view=v%d\n",
			i, len(ds), st.Recovered, len(out.Lost[i]), st.Duplicates, st.OutOfWindow, st.MaxBuffered, last,
			q(50), q(99), q(100), out.Views[i].Version)
		for _, ep := range out.Epochs[i] {
			fmt.Fprintf(&b, "receiver %d epoch %d %s base=%d", i, ep.Epoch, ep.Spec, ep.Base)
			if ep.CutKnown {
				fmt.Fprintf(&b, " cut=%d", ep.Cut)
			}
			fmt.Fprintf(&b, " done=%t drain=%v\n", ep.Done, ep.DrainLatency)
		}
	}
	return b.String() + "\n"
}

// lineDiff prints the lines of want missing from got as "-" and those of
// got missing from want as "+", each in its block's order.
func lineDiff(want, got string) string {
	if want == "" {
		return "(no digest recorded; run with -update)"
	}
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	var b strings.Builder
	for _, l := range wl {
		if !slices.Contains(gl, l) {
			fmt.Fprintf(&b, "- %s\n", l)
		}
	}
	for _, l := range gl {
		if !slices.Contains(wl, l) {
			fmt.Fprintf(&b, "+ %s\n", l)
		}
	}
	return b.String()
}
