package conformance

import (
	"testing"

	"adamant/internal/netem/chaos"
)

// TestCrucibleMatrix runs every registered protocol through the full chaos
// scenario library: each cell executes twice (same seed, byte-identical
// outcomes required) and every invariant must hold. In -short mode the
// seed axis shrinks to one.
func TestCrucibleMatrix(t *testing.T) {
	seeds := []int64{1, 2}
	if testing.Short() {
		seeds = []int64{1}
	}
	cells := CrucibleCells(DefaultCrucibleSpecs(), chaos.Library(), seeds)
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
