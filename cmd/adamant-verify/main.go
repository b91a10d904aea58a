// Command adamant-verify runs one of two checks and exits non-zero when it
// fails.
//
// With -chaos it runs the transport crucible: every registered protocol
// through the chaos scenario library and a lost end of stream under
// invariant checkers, each cell executed twice with byte-identical outcomes
// required (see EXPERIMENTS.md for reproducing a failing cell from its
// printed line).
//
// With -adapt it runs the adaptation figure: a drifting environment driven
// once per static candidate and once with the in-mission adaptor, which
// must match or beat every static configuration.
//
// The paper's figures and their claims are checked elsewhere: make results
// regenerates every committed output, and TestVerdicts in
// internal/experiment evaluates each claim against them.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"

	"adamant/internal/core"
	"adamant/internal/experiment"
	"adamant/internal/netem/chaos"
	"adamant/internal/transport/conformance"
)

func main() {
	chaosMode := flag.Bool("chaos", false, "run the transport crucible (chaos scenario matrix)")
	adaptMode := flag.Bool("adapt", false, "run the adaptation figure (static candidates vs live hot-swap in a drifting environment)")
	jobs := flag.Int("jobs", 0, "worker pool width for the crucible matrix (0 = GOMAXPROCS)")
	seeds := flag.Int("seeds", 2, "number of seeds per crucible cell (seeds 1..n)")
	scenario := flag.String("scenario", "", "restrict the crucible to one scenario by name")
	flag.Parse()
	switch {
	case *chaosMode:
		os.Exit(runChaos(*jobs, *seeds, *scenario))
	case *adaptMode:
		os.Exit(runAdapt())
	}
	flag.Usage()
	os.Exit(2)
}

// runChaos executes the crucible matrix and reports one line per cell.
// Every cell runs twice with the same seed; a hash mismatch between the two
// runs is a determinism failure. Returns the process exit code.
func runChaos(jobs, seeds int, scenario string) int {
	scenarios := append(chaos.Library(), conformance.LostEOS())
	if scenario != "" {
		i := slices.IndexFunc(scenarios, func(s chaos.Scenario) bool { return s.Name == scenario })
		if i < 0 {
			fmt.Fprintf(os.Stderr, "unknown scenario %q; library:\n", scenario)
			for _, s := range scenarios {
				fmt.Fprintf(os.Stderr, "  %-16s %s\n", s.Name, s.Info)
			}
			return 2
		}
		scenarios = scenarios[i : i+1]
	}
	if seeds < 1 {
		seeds = 1
	}
	seedList := make([]int64, seeds)
	for i := range seedList {
		seedList[i] = int64(i + 1)
	}
	specs := conformance.DefaultCrucibleSpecs()
	cells := conformance.CrucibleCells(specs, scenarios, seedList)
	static := len(cells)
	var switches int
	if scenario == "" {
		// The full matrix also exercises live hot-swaps: a calm switch, a
		// switch at the loss peak, a switch at the partition heal, and
		// back-to-back flapping, for every base protocol; and every
		// protocol over a 100 000-sample stream.
		cells = append(cells, conformance.SwitchCells(specs, seedList)...)
		switches = len(cells) - static
		cells = append(cells, conformance.LongStreamCells(specs, seedList)...)
	}
	fmt.Printf("chaos crucible: %d specs x %d scenarios x %d seeds = %d cells + %d switch cells + %d long-stream cells (each run twice)\n",
		len(specs), len(scenarios), len(seedList), static, switches, len(cells)-static-switches)

	results := conformance.RunCrucibleMatrix(cells, jobs, nil)
	failed := 0
	for _, res := range results {
		switch {
		case res.Err != nil:
			failed++
			fmt.Printf("FAIL %-50s %v\n", res.Cell.Name(), res.Err)
		case len(res.Failures) > 0:
			failed++
			fmt.Printf("FAIL %-50s hash=%.12s\n", res.Cell.Name(), res.Hash)
			for _, f := range res.Failures {
				fmt.Printf("     - %s\n", f)
			}
		default:
			fmt.Printf("PASS %-50s hash=%.12s\n", res.Cell.Name(), res.Hash)
		}
	}
	fmt.Printf("\n%d cells, %d failures\n", len(results), failed)
	if failed > 0 {
		fmt.Println("reproduce a cell from its line: see EXPERIMENTS.md, \"Reproducing a crucible failure\"")
		return 1
	}
	return 0
}

// runAdapt executes the adaptation figure: a drifting environment driven
// once per static candidate and once with the in-mission adaptor hot-swapping
// the transport, reporting composite scores and the reconfiguration cost
// (Rebind apply time + old-generation drain latency). Returns the exit code.
func runAdapt() int {
	report, err := experiment.RunAdaptationFigure(experiment.AdaptationConfig{
		Seed: 11, Metric: core.MetricReLate2,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "ERR", err)
		return 1
	}
	fmt.Print(report)
	if !report.AdaptiveWins(0.05) {
		fmt.Println("\nFAIL adaptive run lost to the best static configuration")
		return 1
	}
	fmt.Println("\nPASS adaptive run matched or beat every static configuration")
	return 0
}
