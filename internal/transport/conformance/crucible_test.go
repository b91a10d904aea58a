package conformance

import (
	"slices"
	"testing"

	"adamant/internal/netem/chaos"
	"adamant/internal/transport"
	"adamant/internal/transport/protocols"
)

// TestCrucibleMatrix runs every registered protocol through the full chaos
// scenario library and the lost end of stream: each cell executes twice
// (same seed, byte-identical outcomes required) and every invariant must
// hold. In -short mode the seed axis shrinks to one.
func TestCrucibleMatrix(t *testing.T) {
	seeds := []int64{1, 2}
	if testing.Short() {
		seeds = []int64{1}
	}
	cells := CrucibleCells(DefaultCrucibleSpecs(), append(chaos.Library(), LostEOS()), seeds)
	cells = append(cells, LongStreamCells(DefaultCrucibleSpecs(), []int64{1})...)
	results := RunCrucibleMatrix(cells, 0, nil)
	for _, res := range results {
		if res.Err != nil {
			t.Errorf("%s: %v", res.Cell.Name(), res.Err)
			continue
		}
		for _, f := range res.Failures {
			t.Errorf("%s: %s", res.Cell.Name(), f)
		}
	}
}

// TestCrucibleSeedSensitivity pins that the outcome hash responds to the
// seed on a lossy scenario — if two different seeds collide, the hash (and
// with it the replay guarantee) is vacuous.
func TestCrucibleSeedSensitivity(t *testing.T) {
	base := CrucibleScenario{
		Spec:  mustSpec("bemcast"),
		Chaos: chaos.LossyRamp(),
		Seed:  1,
	}
	a, err := ExecuteCrucible(base)
	if err != nil {
		t.Fatal(err)
	}
	base.Seed = 2
	b, err := ExecuteCrucible(base)
	if err != nil {
		t.Fatal(err)
	}
	if a.Hash == b.Hash {
		t.Fatalf("seeds 1 and 2 produced identical outcome hash %s", a.Hash)
	}
}

// topSeq returns the highest seq a receiver delivered or reported lost.
func topSeq(ds []transport.Delivery, lost []uint64) uint64 {
	top := slices.Max(append([]uint64{0}, lost...))
	for _, d := range ds {
		top = max(top, d.Seq)
	}
	return top
}

// TestCrucibleCrashedSenderRule pins what the receivers of a crashed
// sender owe. On nakcast a loss report dropped below the receiver's
// highest seq breaks conservation; on ricochet a silent gap below it does
// not, because a dead sender never sends the end of stream or the later
// data that closes ricochet's tail.
func TestCrucibleCrashedSenderRule(t *testing.T) {
	nak := CrucibleScenario{Spec: mustSpec("nakcast(timeout=5ms)"), Chaos: chaos.SenderCrash(), Seed: 2, Samples: 400}
	out, err := ExecuteCrucible(nak)
	if err != nil {
		t.Fatal(err)
	}
	if errs := CheckCrucible(nak, out); len(errs) > 0 {
		t.Fatalf("%s fails before any edit: %v", nak.Name(), errs)
	}
	// 100 samples go out in the second before the crash: each receiver
	// delivers most of them and none after them.
	for i, ds := range out.Deliveries {
		if n := len(ds); n < 75 || n > 100 {
			t.Errorf("receiver %d delivered %d, want 75..100 of the samples published before the crash", i, n)
		}
	}
	// Drop one loss report below its receiver's highest delivery.
	i, j := -1, -1
	for r, lost := range out.Lost {
		top := topSeq(out.Deliveries[r], nil)
		if j = slices.IndexFunc(lost, func(seq uint64) bool { return seq < top }); j >= 0 {
			i = r
			break
		}
	}
	if i < 0 {
		t.Fatalf("%s: no receiver reported a loss below its highest delivery; the rule is vacuous here", nak.Name())
	}
	seq := out.Lost[i][j]
	out.Lost[i] = slices.Delete(slices.Clone(out.Lost[i]), j, j+1)
	if len(CheckCrucible(nak, out)) == 0 {
		t.Errorf("receiver %d: dropping the loss report of seq %d went unflagged", i, seq)
	}

	ric := CrucibleScenario{Spec: mustSpec("ricochet(c=3,r=4)"), Chaos: chaos.SenderCrash(), Seed: 1}
	if out, err = ExecuteCrucible(ric); err != nil {
		t.Fatal(err)
	}
	// Delivered and lost seqs are distinct and at most the top, so fewer of
	// them than the top leaves a seq below it silent.
	silent := false
	for i, ds := range out.Deliveries {
		silent = silent || uint64(len(ds)+len(out.Lost[i])) < topSeq(ds, out.Lost[i])
	}
	if !silent {
		t.Fatalf("%s: no receiver left a gap below its highest seq silent", ric.Name())
	}
	if errs := CheckCrucible(ric, out); len(errs) > 0 {
		t.Errorf("%s: %v", ric.Name(), errs)
	}
}

// TestCrashUnderLossSurvivors holds the survivors of a receiver crash under
// 5% loss to floors that no invariant sets: bemcast's get 90% through, and
// ricochet's 99% with lateral repairs still decoding.
func TestCrashUnderLossSurvivors(t *testing.T) {
	rows := []struct {
		spec    string
		floor   float64
		repairs bool
	}{
		{"bemcast", 90, false},
		{"ricochet(c=3,r=4)", 99, true},
	}
	for _, row := range rows {
		for _, seed := range []int64{1, 2} {
			cs := CrucibleScenario{Spec: mustSpec(row.spec), Chaos: chaos.CrashUnderLoss(), Seed: seed, Samples: 400}
			out, err := ExecuteCrucible(cs)
			if err != nil {
				t.Fatalf("%s: %v", cs.Name(), err)
			}
			_, ends := cs.Chaos.EndState(len(out.Deliveries))
			for i, ds := range out.Deliveries {
				if ends[i].Crashed {
					continue
				}
				if pct := 100 * float64(len(ds)) / float64(cs.Samples); pct < row.floor {
					t.Errorf("%s: survivor %d delivered %.2f%%, want >= %.0f%%", cs.Name(), i, pct, row.floor)
				}
				if row.repairs && out.Stats[i].RepairsUsed == 0 {
					t.Errorf("%s: survivor %d decoded no repair", cs.Name(), i)
				}
			}
		}
	}
}

// TestPartitionHole pins that the split-brain partition is a real fault
// for every spec that does not NAK for what it missed: each partitioned
// receiver misses samples for good, and every other receiver misses none.
// nakcast's backfill of the same hole is the completeness invariant's.
func TestPartitionHole(t *testing.T) {
	for _, spec := range DefaultCrucibleSpecs() {
		props, err := protocols.MustRegistry().Props(spec)
		if err != nil {
			t.Fatal(err)
		}
		if props.Has(transport.PropNAKReliability) {
			continue
		}
		cs := CrucibleScenario{Spec: spec, Chaos: chaos.SplitBrain(), Seed: 1, Samples: 400}
		out, err := ExecuteCrucible(cs)
		if err != nil {
			t.Fatalf("%s: %v", cs.Name(), err)
		}
		for i, ds := range out.Deliveries {
			if partitioned := i%2 == 0; partitioned == (len(ds) == cs.Samples) {
				t.Errorf("%s: receiver %d (partitioned=%t) delivered %d/%d", cs.Name(), i, partitioned, len(ds), cs.Samples)
			}
		}
	}
}
