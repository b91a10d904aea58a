package experiment

import (
	"math"
	"strconv"
	"strings"
	"testing"
)

func cell(t *testing.T, tab Table, row, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSpace(tab.Rows[row][col]), 64)
	if err != nil {
		t.Fatalf("cell (%d,%d) = %q: %v", row, col, tab.Rows[row][col], err)
	}
	return v
}

// ablation runs the study with the given ID, alone, through the driver.
func ablation(t *testing.T, id string) Table {
	t.Helper()
	for _, st := range ablationStudies {
		if st.id == id {
			tabs, err := runAblations(AblationOptions{Samples: 800, Seed: 4}, st)
			if err != nil {
				t.Fatal(err)
			}
			return tabs[0]
		}
	}
	t.Fatalf("no ablation study %q", id)
	return Table{}
}

func TestAblationFlush(t *testing.T) {
	tab := ablation(t, "Ablation A2")
	withLat, withoutLat := cell(t, tab, 0, 2), cell(t, tab, 1, 2)
	if withLat >= withoutLat {
		t.Errorf("flush-on latency %.0f should beat flush-off %.0f at 10Hz", withLat, withoutLat)
	}
	// Without the flush, recovery waits ~R/rate = 400ms; the latency gap
	// should be substantial, not marginal.
	if withoutLat < withLat*2 {
		t.Errorf("flush-off latency %.0f not clearly worse than %.0f", withoutLat, withLat)
	}
}

func TestAblationStagger(t *testing.T) {
	tab := ablation(t, "Ablation A3")
	// Stagger's reliability effect is small and can go either way (shifted
	// groups enable double-loss cascades but dilute per-repair coverage);
	// what the ablation must show is that both variants recover the bulk
	// of the 5% injected loss and stay within a point of each other.
	stagRel, alignRel := cell(t, tab, 0, 1), cell(t, tab, 1, 1)
	if stagRel < 99 || alignRel < 99 {
		t.Errorf("reliabilities %.2f/%.2f; both variants should recover most loss", stagRel, alignRel)
	}
	if diff := stagRel - alignRel; diff > 1 || diff < -1 {
		t.Errorf("stagger changed reliability by %.2f points; expected a second-order effect", diff)
	}
}

func TestAblationRC(t *testing.T) {
	tab := ablation(t, "Ablation A4")
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// R=8 C=3 must transmit fewer packets than R=2 C=3 (repairs every 8th
	// vs every 2nd packet).
	r2tx, r8tx := cell(t, tab, 0, 5), cell(t, tab, 3, 5)
	if r8tx >= r2tx {
		t.Errorf("R=8 tx %.0f should be below R=2 tx %.0f", r8tx, r2tx)
	}
	// And R=2's reliability should be at least R=8's.
	r2rel, r8rel := cell(t, tab, 0, 1), cell(t, tab, 3, 1)
	if r2rel < r8rel-0.05 {
		t.Errorf("R=2 reliability %.2f vs R=8 %.2f", r2rel, r8rel)
	}
}

func TestAblationBurst(t *testing.T) {
	tab, err := burstAblation(AblationOptions{Samples: 800, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Overhead is measured against the baseline run, and the second pass
	// lands fountcast's overhead nearer ricochet's than the probe's.
	base, ric, probe, matched := cell(t, tab, 0, 6), cell(t, tab, 1, 6), cell(t, tab, 2, 6), cell(t, tab, 3, 6)
	if base != 0 {
		t.Errorf("baseline overhead %.1f%%", base)
	}
	if math.Abs(matched-ric) >= math.Abs(probe-ric) {
		t.Errorf("matched overhead %.1f%% no nearer ricochet's %.1f%% than the probe's %.1f%%", matched, ric, probe)
	}
}

func TestAblationsAll(t *testing.T) {
	if testing.Short() {
		t.Skip("ablations in -short mode")
	}
	tables, err := Ablations(AblationOptions{Samples: 300, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 4 {
		t.Fatalf("got %d ablation tables", len(tables))
	}
	for _, tab := range tables {
		if len(tab.Rows) == 0 || tab.Format() == "" {
			t.Errorf("%s is empty", tab.ID)
		}
	}
}
