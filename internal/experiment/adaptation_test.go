package experiment

import (
	"path/filepath"
	"testing"

	"adamant/internal/core"
)

// shippedSelector queries the knowledge base the repository ships,
// data/adamant.ann.
func shippedSelector(t *testing.T) *core.ANNSelector {
	t.Helper()
	sel, err := core.LoadANNSelector(filepath.Join("..", "..", "data", "adamant.ann"))
	if err != nil {
		t.Fatal(err)
	}
	return sel
}

// TestAdaptationFigure is the paper's future-work claim made executable: in
// a drifting environment, in-mission adaptation (monitor -> re-query the
// shipped ANN -> live Rebind) must do at least as well as the best protocol
// chosen statically up front, and the cost of switching must be measured.
func TestAdaptationFigure(t *testing.T) {
	cfg := AdaptationConfig{Seed: 11, Metric: core.MetricReLate2}
	if testing.Short() {
		cfg.Phases = []DriftPhase{
			{Samples: 300, RateHz: 50, LossPct: 0},
			{Samples: 300, RateHz: 25, LossPct: 5},
		}
	}
	report, err := RunAdaptationFigure(cfg, shippedSelector(t))
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", report)

	if len(report.Static) != core.NumCandidates {
		t.Fatalf("static rows = %d, want %d", len(report.Static), core.NumCandidates)
	}
	best := report.Static[report.BestStatic]
	for _, row := range report.Static {
		if row.Score < best.Score {
			t.Errorf("BestStatic mis-ranked: %s scored %.1f < %.1f", row.Label, row.Score, best.Score)
		}
	}
	if !report.AdaptiveWins(0.05) {
		t.Errorf("adaptive scored %.1f, best static (%s) %.1f: adaptation lost the drift",
			report.Adaptive.Score, best.Label, best.Score)
	}
	// When the ANN picks differently for the two phases the adaptor must
	// actually have switched, and the switch cost must be measured.
	if report.Picks[0].String() != report.Picks[1].String() {
		if len(report.Switches) == 0 {
			t.Fatalf("the ANN picks %s then %s but the adaptor never switched", report.Picks[0], report.Picks[1])
		}
		for i, sw := range report.Switches {
			if sw.Err != nil {
				t.Errorf("switch %d failed: %v", i, sw.Err)
			}
			if sw.ApplyTime <= 0 {
				t.Errorf("switch %d: ApplyTime = %v, want > 0", i, sw.ApplyTime)
			}
		}
		if len(report.DrainLatencyMax) != len(report.Switches) {
			t.Fatalf("drain latencies = %d, switches = %d", len(report.DrainLatencyMax), len(report.Switches))
		}
		for i, d := range report.DrainLatencyMax {
			// Zero is legitimate: an old generation with nothing in flight
			// at the cut is drained the moment it is superseded.
			if d < 0 {
				t.Errorf("superseded generation %d: negative drain latency %v", i, d)
			}
		}
	} else {
		t.Logf("the ANN picks %s for both phases; adaptive ran without switching", report.Picks[0])
	}
}

// TestAdaptationConfigValidation pins the input checks. Each is rejected
// before anything runs: a negative payload used to panic inside a Runner
// worker goroutine.
func TestAdaptationConfigValidation(t *testing.T) {
	sel := shippedSelector(t)
	bad := []AdaptationConfig{
		{Phases: []DriftPhase{{Samples: 0, RateHz: 50}}},
		{Phases: []DriftPhase{{Samples: 10, RateHz: -1}}},
		{Phases: []DriftPhase{{Samples: 10, RateHz: 50, LossPct: 120}}},
		{PayloadBytes: -1},
	}
	for i, cfg := range bad {
		if _, err := RunAdaptationFigure(cfg, sel); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

// TestDriftStaticMatchesSteadyPhases pins that a static drift is the steady
// run: a one-phase drift gives RunDetailed's summary exactly and delivers
// everything on a reliable transport.
func TestDriftStaticMatchesSteadyPhases(t *testing.T) {
	cfg := AdaptationConfig{
		Seed:   5,
		Phases: []DriftPhase{{Samples: 200, RateHz: 100, LossPct: 2}},
	}
	cfg.fillDefaults()
	cell := cfg.cell(cfg.Phases[0], core.Candidates()[3], 5)
	res, err := runCell(cell, cfg.Phases, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.summary.Delivered != uint64(200*cfg.Receivers) {
		t.Errorf("delivered %d, want %d", res.summary.Delivered, 200*cfg.Receivers)
	}
	if len(res.switches) != 0 {
		t.Errorf("static run recorded switches: %+v", res.switches)
	}
	steady, _, err := RunDetailed(cell)
	if err != nil {
		t.Fatal(err)
	}
	if steady != res.summary {
		t.Errorf("one-phase drift %+v, steady run %+v", res.summary, steady)
	}
}
