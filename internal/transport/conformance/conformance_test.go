package conformance

import (
	"fmt"
	"testing"

	"adamant/internal/netem/chaos"
	"adamant/internal/transport"
)

// The protocol matrix: every registered protocol with its reliability
// obligations, each row a crucible cell under the crucible's invariants.
// Best-effort multicast must deliver what the network gives it (~95% at 5%
// loss); the recovery protocols owe (nearly) everything.
var matrix = []struct {
	name          string
	spec          transport.Spec
	minLossless   float64 // reliability floor with no loss
	minAt5PctLoss float64 // reliability floor at 5% end-host loss
	maxAt5PctLoss float64 // ceiling, to catch accidental duplication
}{
	{
		name:          "bemcast",
		spec:          transport.Spec{Name: "bemcast"},
		minLossless:   100,
		minAt5PctLoss: 90,
		maxAt5PctLoss: 98, // must NOT recover: it is the no-recovery baseline
	},
	{
		name:          "nakcast-1ms",
		spec:          transport.Spec{Name: "nakcast", Params: transport.Params{"timeout": "1ms"}},
		minLossless:   100,
		minAt5PctLoss: 99.9,
		maxAt5PctLoss: 100,
	},
	{
		name:          "nakcast-25ms",
		spec:          transport.Spec{Name: "nakcast", Params: transport.Params{"timeout": "25ms"}},
		minLossless:   100,
		minAt5PctLoss: 99.9,
		maxAt5PctLoss: 100,
	},
	{
		name:          "ricochet-r4c3",
		spec:          transport.Spec{Name: "ricochet", Params: transport.Params{"r": "4", "c": "3"}},
		minLossless:   100,
		minAt5PctLoss: 98.5,
		maxAt5PctLoss: 100,
	},
	{
		name:          "ricochet-r8c3",
		spec:          transport.Spec{Name: "ricochet", Params: transport.Params{"r": "8", "c": "3"}},
		minLossless:   100,
		minAt5PctLoss: 97.5,
		maxAt5PctLoss: 100,
	},
	{
		name:          "fountcast-k8oh25",
		spec:          transport.Spec{Name: "fountcast", Params: transport.Params{"k": "8", "oh": "25"}},
		minLossless:   100,
		minAt5PctLoss: 98.5,
		maxAt5PctLoss: 100,
	},
}

// withLoss scripts uniform end-host loss on every receiver from t=0, or the
// calm control scenario when pct is 0.
func withLoss(cs CrucibleScenario, pct float64) CrucibleScenario {
	cs.Chaos = chaos.CalmControl()
	if pct > 0 {
		cs.Chaos = chaos.Scenario{Name: fmt.Sprintf("loss=%g%%", pct), Events: []chaos.Event{
			{Kind: chaos.KindLoss, Target: chaos.AllReceivers(), Pct: pct},
		}}
	}
	return cs
}

// checkRow runs one row: every receiver's reliability must lie in
// [min, max] percent, and the cell must pass every crucible invariant. It
// returns the reliability over all receivers together.
func checkRow(t *testing.T, cs CrucibleScenario, min, max float64) float64 {
	t.Helper()
	out, err := ExecuteCrucible(cs)
	if err != nil {
		t.Fatalf("%s: %v", cs.Name(), err)
	}
	delivered := 0
	for i, ds := range out.Deliveries {
		delivered += len(ds)
		if rel := 100 * float64(len(ds)) / float64(cs.Samples); rel < min || rel > max {
			t.Errorf("%s receiver %d: reliability %.2f%%, want %.2f%%..%.2f%%", cs.Name(), i, rel, min, max)
		}
	}
	for _, err := range CheckCrucible(cs, out) {
		t.Errorf("%s: %v", cs.Name(), err)
	}
	return 100 * float64(delivered) / float64(cs.Samples*len(out.Deliveries))
}

func TestLossless(t *testing.T) {
	for _, m := range matrix {
		m := m
		t.Run(m.name, func(t *testing.T) {
			cs := CrucibleScenario{Spec: m.spec, Receivers: 3, Samples: 300, Seed: 7}
			checkRow(t, withLoss(cs, 0), m.minLossless, 100)
		})
	}
}

func TestFivePercentLoss(t *testing.T) {
	for _, m := range matrix {
		m := m
		t.Run(m.name, func(t *testing.T) {
			cs := CrucibleScenario{Spec: m.spec, Receivers: 3, Samples: 600, Seed: 11}
			checkRow(t, withLoss(cs, 5), m.minAt5PctLoss, m.maxAt5PctLoss)
		})
	}
}

func TestSingleReceiver(t *testing.T) {
	// Degenerate group: no peers for lateral repair, no ACK aggregation.
	for _, m := range matrix {
		m := m
		t.Run(m.name, func(t *testing.T) {
			min := m.minAt5PctLoss
			if m.spec.Name == "ricochet" {
				min = 90 // no peers -> no recovery at all
			}
			cs := CrucibleScenario{Spec: m.spec, Receivers: 1, Samples: 400, Seed: 13}
			checkRow(t, withLoss(cs, 5), min, 100)
		})
	}
}

func TestHighRate(t *testing.T) {
	// 1 kHz pushes the CPU/queueing model; nothing may be duplicated or
	// corrupted.
	for _, m := range matrix {
		m := m
		t.Run(m.name, func(t *testing.T) {
			cs := CrucibleScenario{Spec: m.spec, Receivers: 3, RateHz: 1000, Samples: 500, Seed: 17}
			checkRow(t, withLoss(cs, 2), minFor(m.name), 100)
		})
	}
}

// TestRicochetBurstLoss holds ricochet under Gilbert-Elliott burst loss
// (about 5% on average, in bursts, from the start) against the same cell
// at uniform 5% loss. A burst drops a sample together with the repairs
// its peers send for it, so ricochet must do worse, yet every receiver
// must still get 90% through.
func TestRicochetBurstLoss(t *testing.T) {
	cs := CrucibleScenario{Spec: mustSpec("ricochet(c=3,r=4)"), Receivers: 3, Samples: 600, Seed: 55}
	uniform := checkRow(t, withLoss(cs, 5), 90, 100)
	cs.Chaos = chaos.Scenario{Name: "burst", Events: []chaos.Event{
		{Kind: chaos.KindBurst, Target: chaos.AllReceivers(), PGB: 0.013, PBG: 0.25, DropBad: 1},
	}}
	if burst := checkRow(t, cs, 90, 100); burst >= uniform {
		t.Errorf("ricochet delivered %.2f%% under burst loss, not less than %.2f%% under uniform loss", burst, uniform)
	}
}

func minFor(name string) float64 {
	switch name {
	case "bemcast":
		return 90
	case "ricochet-r8c3", "ricochet-r4c3":
		return 97
	case "fountcast-k8oh25":
		return 99
	default:
		return 99.5
	}
}

// TestDeterministicReplay runs each row twice on one seed: RunCell demands
// identical outcome hashes and checks every invariant.
func TestDeterministicReplay(t *testing.T) {
	for _, m := range matrix {
		m := m
		t.Run(m.name, func(t *testing.T) {
			res := RunCell(withLoss(CrucibleScenario{Spec: m.spec, Receivers: 3, Samples: 200, Seed: 19}, 5))
			if res.Err != nil {
				t.Fatalf("%s: %v", res.Cell.Name(), res.Err)
			}
			for _, f := range res.Failures {
				t.Errorf("%s: %s", res.Cell.Name(), f)
			}
		})
	}
}
