package conformance

import (
	"testing"
	"time"

	"adamant/internal/netem/chaos"
	"adamant/internal/transport"
)

// TestCrucibleSwitchMatrix runs every registered protocol through the
// hot-swap matrix: a calm switch, a switch at the peak of a loss burst, a
// switch at the moment a partition heals, and back-to-back flapping. Each
// cell executes twice (same seed, byte-identical outcomes required) and
// every chain-aware invariant must hold.
func TestCrucibleSwitchMatrix(t *testing.T) {
	seeds := []int64{1, 2}
	if testing.Short() {
		seeds = []int64{1}
	}
	cells := SwitchCells(DefaultCrucibleSpecs(), seeds)
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

// TestCrucibleCalmSwitchComplete pins the headline acceptance property
// explicitly: on a calm network, a mid-run swap loses nothing on ANY base
// transport — even best-effort — and every superseded generation reports a
// measured drain latency.
func TestCrucibleCalmSwitchComplete(t *testing.T) {
	for _, spec := range DefaultCrucibleSpecs() {
		spec := spec
		t.Run(spec.String(), func(t *testing.T) {
			cs := CrucibleScenario{
				Spec:     spec,
				Chaos:    chaos.CalmControl(),
				Switches: []TransportSwitch{{At: 2 * time.Second, Spec: SwitchTargetFor(spec)}},
			}
			out, err := ExecuteCrucible(cs)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range CheckCrucible(cs, out) {
				t.Error(e)
			}
			cs.fillDefaults()
			for i, ds := range out.Deliveries {
				if len(ds) != cs.Samples {
					t.Errorf("receiver %d: %d/%d across a calm switch", i, len(ds), cs.Samples)
				}
				eps := out.Epochs[i]
				if len(eps) != 2 {
					t.Fatalf("receiver %d: %d epochs, want 2", i, len(eps))
				}
				if !eps[0].Done || eps[0].DrainLatency < 0 {
					t.Errorf("receiver %d: old generation %+v not cleanly drained", i, eps[0])
				}
			}
		})
	}
}

// TestSwitchCellNaming pins that switch cells are self-describing: the name
// alone must reproduce the cell (spec chain, times, scenario, seed).
func TestSwitchCellNaming(t *testing.T) {
	cs := CrucibleScenario{
		Spec:  mustSpec("nakcast(timeout=5ms)"),
		Chaos: chaos.SplitBrain(),
		Seed:  3,
		Switches: []TransportSwitch{
			{At: 1600 * time.Millisecond, Spec: mustSpec("ricochet(c=3,r=4)")},
		},
	}
	want := "nakcast(timeout=5ms)->ricochet(c=3,r=4)@1.6s/split-brain/seed=3"
	if got := cs.Name(); got != want {
		t.Errorf("Name() = %q, want %q", got, want)
	}
}

// FuzzRebind throws randomized switch schedules and chaos scenarios at the
// crucible: whatever the timing, the chain-aware invariants must hold.
func FuzzRebind(f *testing.F) {
	f.Add(int64(1), uint16(900), uint16(1800), uint8(0), uint8(1), uint8(0))
	f.Add(int64(2), uint16(400), uint16(450), uint8(3), uint8(2), uint8(3))
	f.Add(int64(3), uint16(1600), uint16(1601), uint8(1), uint8(3), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, at1, at2 uint16, spec1, spec2, scenario uint8) {
		specs := DefaultCrucibleSpecs()
		lib := []chaos.Scenario{chaos.CalmControl(), chaos.SplitBrain(), chaos.LossyRamp(), chaos.Churn()}
		if seed == 0 {
			seed = 1
		}
		// Switch times land inside the shortened 2s publish window (plus a
		// bit of tail), ordered.
		t1 := time.Duration(at1%2200+50) * time.Millisecond
		t2 := time.Duration(at2%2200+50) * time.Millisecond
		if t2 < t1 {
			t1, t2 = t2, t1
		}
		if t2 == t1 {
			t2 += 50 * time.Millisecond
		}
		cs := CrucibleScenario{
			Spec:    specs[int(spec1)%len(specs)],
			Chaos:   lib[int(scenario)%len(lib)],
			Seed:    seed,
			Samples: 200, // 2s at the default 100Hz keeps the fuzz cell fast
			Switches: []TransportSwitch{
				{At: t1, Spec: specs[int(spec2)%len(specs)]},
				{At: t2, Spec: SwitchTargetFor(specs[int(spec2)%len(specs)])},
			},
		}
		out, err := ExecuteCrucible(cs)
		if err != nil {
			t.Fatalf("%s: %v", cs.Name(), err)
		}
		for _, e := range CheckCrucible(cs, out) {
			t.Errorf("%s: %s", cs.Name(), e)
		}
	})
}

var _ = transport.Spec{} // keep the import when test bodies change
