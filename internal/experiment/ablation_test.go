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
	if len(tables) != 1 || tables[0].ID != "Ablation A6" {
		t.Fatalf("got %d ablation tables, want Ablation A6 alone", len(tables))
	}
	for _, tab := range tables {
		if len(tab.Rows) == 0 || tab.Format() == "" {
			t.Errorf("%s is empty", tab.ID)
		}
	}
}
