// Command adamant-verify checks the simulator calibration against the paper's
// qualitative targets (see DESIGN.md).
//
// With -chaos it instead runs the transport crucible: every registered
// protocol through the chaos scenario library under invariant checkers,
// each cell executed twice with byte-identical outcomes required (see
// EXPERIMENTS.md for reproducing a failing cell from its printed line).
package main

import (
	"flag"
	"fmt"
	"os"

	"adamant/internal/core"
	"adamant/internal/dds"
	"adamant/internal/experiment"
	"adamant/internal/metrics"
	"adamant/internal/netem"
	"adamant/internal/netem/chaos"
	"adamant/internal/transport"
	"adamant/internal/transport/conformance"
	"adamant/internal/transport/fountcast"
)

// mustSpec parses a known-good spec literal.
func mustSpec(s string) transport.Spec {
	spec, err := transport.ParseSpec(s)
	if err != nil {
		panic(err)
	}
	return spec
}

const (
	idxNak1  = 3 // nakcast(timeout=1ms)
	idxRicR4 = 4 // ricochet(c=3,r=4)
)

func mean(ss []metrics.Summary, f func(metrics.Summary) float64) float64 {
	var t float64
	for _, s := range ss {
		t += f(s)
	}
	return t / float64(len(ss))
}

func main() {
	chaosMode := flag.Bool("chaos", false, "run the transport crucible (chaos scenario matrix) instead of calibration")
	adaptMode := flag.Bool("adapt", false, "run the adaptation figure (static candidates vs live hot-swap in a drifting environment)")
	jobs := flag.Int("jobs", 0, "worker pool width for the crucible matrix (0 = GOMAXPROCS)")
	seeds := flag.Int("seeds", 2, "number of seeds per crucible cell (seeds 1..n)")
	scenario := flag.String("scenario", "", "restrict the crucible to one scenario by name")
	flag.Parse()
	if *chaosMode {
		os.Exit(runChaos(*jobs, *seeds, *scenario))
	}
	if *adaptMode {
		os.Exit(runAdapt())
	}

	runs := 3
	samples := 2000
	fail := 0
	check := func(name string, ok bool, detail string) {
		mark := "PASS"
		if !ok {
			mark = "FAIL"
			fail++
		}
		fmt.Printf("%-4s %-50s %s\n", mark, name, detail)
	}

	type plat struct {
		m    netem.Machine
		bw   netem.Bandwidth
		name string
	}
	fast := plat{netem.PC3000, netem.Gbps1, "fast"}
	slow := plat{netem.PC850, netem.Mbps100, "slow"}

	// --- 3 receivers, Figs 4-9 ---
	type res3 struct{ nak, ric []metrics.Summary }
	get := func(p plat, recv int, rate float64) res3 {
		cfg := experiment.Config{Machine: p.m, Bandwidth: p.bw, Impl: dds.ImplB,
			LossPct: 5, Receivers: recv, RateHz: rate, Samples: samples, Seed: 77}
		cands, err := experiment.RunCandidates(cfg, runs)
		if err != nil {
			fmt.Println("ERR", err)
			os.Exit(1)
		}
		w2 := experiment.Winner(cands, core.MetricReLate2)
		wj := experiment.Winner(cands, core.MetricReLate2Jit)
		fmt.Printf("  [%s %drcv %gHz] ReLate2 winner=%s  ReLate2Jit winner=%s\n",
			p.name, recv, rate, cands[w2].Spec, cands[wj].Spec)
		for i, c := range cands {
			fmt.Printf("    %-24s rel=%6.2f lat=%7.0f jit=%7.0f r2=%9.0f r2j=%10.3g\n",
				c.Spec.String(), mean(c.Summaries, metrics.Summary.Reliability),
				mean(c.Summaries, func(s metrics.Summary) float64 { return s.AvgLatencyUs }),
				mean(c.Summaries, func(s metrics.Summary) float64 { return s.JitterUs }),
				mean(c.Summaries, func(s metrics.Summary) float64 { return s.ReLate2 }),
				mean(c.Summaries, func(s metrics.Summary) float64 { return s.ReLate2Jit }))
			_ = i
		}
		return res3{nak: cands[idxNak1].Summaries, ric: cands[idxRicR4].Summaries}
	}

	r2 := func(ss []metrics.Summary) float64 {
		return mean(ss, func(s metrics.Summary) float64 { return s.ReLate2 })
	}
	r2j := func(ss []metrics.Summary) float64 {
		return mean(ss, func(s metrics.Summary) float64 { return s.ReLate2Jit })
	}
	lat := func(ss []metrics.Summary) float64 {
		return mean(ss, func(s metrics.Summary) float64 { return s.AvgLatencyUs })
	}
	jit := func(ss []metrics.Summary) float64 {
		return mean(ss, func(s metrics.Summary) float64 { return s.JitterUs })
	}
	rel := func(ss []metrics.Summary) float64 {
		return mean(ss, metrics.Summary.Reliability)
	}

	f10 := get(fast, 3, 10)
	f25 := get(fast, 3, 25)
	s10 := get(slow, 3, 10)
	s25 := get(slow, 3, 25)

	check("C1 fast/3/10: ric beats nak ReLate2", r2(f10.ric) < r2(f10.nak),
		fmt.Sprintf("ric=%.0f nak=%.0f", r2(f10.ric), r2(f10.nak)))
	check("C2 fast/3/25: ric beats nak ReLate2", r2(f25.ric) < r2(f25.nak),
		fmt.Sprintf("ric=%.0f nak=%.0f", r2(f25.ric), r2(f25.nak)))
	check("C3 slow/3/10: nak beats ric ReLate2", r2(s10.nak) < r2(s10.ric),
		fmt.Sprintf("nak=%.0f ric=%.0f", r2(s10.nak), r2(s10.ric)))
	check("C4 slow/3/25: nak beats ric ReLate2", r2(s25.nak) < r2(s25.ric),
		fmt.Sprintf("nak=%.0f ric=%.0f", r2(s25.nak), r2(s25.ric)))
	// The slow/3/25 latency sign is a documented deviation (EXPERIMENTS.md):
	// NAKcast's detection improves with rate while Ricochet's CPU-bound
	// cost on pc850 is rate-flat, so at 25 Hz on pc850 Ricochet's average
	// latency slightly exceeds NAKcast's in our model.
	check("C5 ric latency lower (3rcv; 10Hz both, 25Hz fast)",
		lat(f10.ric) < lat(f10.nak) && lat(f25.ric) < lat(f25.nak) &&
			lat(s10.ric) < lat(s10.nak), "")
	gapFast := lat(f10.nak) - lat(f10.ric)
	gapSlow := lat(s10.nak) - lat(s10.ric)
	check("C6 latency gap wider on fast (10Hz)", gapFast > gapSlow,
		fmt.Sprintf("fast=%.0fus slow=%.0fus", gapFast, gapSlow))
	check("C7 nak reliability > ric, flat across hw",
		rel(f10.nak) > rel(f10.ric) && rel(s10.nak) > rel(s10.ric) &&
			rel(f10.ric) > 98 &&
			abs(rel(f10.ric)-rel(s10.ric)) < 0.3 && abs(rel(f10.nak)-rel(s10.nak)) < 0.2,
		fmt.Sprintf("nak %.2f/%.2f ric %.2f/%.2f", rel(f10.nak), rel(s10.nak), rel(f10.ric), rel(s10.ric)))

	// --- 15 receivers, 10 Hz, Figs 10-17 ---
	f15 := get(fast, 15, 10)
	s15 := get(slow, 15, 10)
	check("C8 fast/15/10: ric beats nak ReLate2Jit", r2j(f15.ric) < r2j(f15.nak),
		fmt.Sprintf("ric=%.3g nak=%.3g", r2j(f15.ric), r2j(f15.nak)))
	// The paper reports this as NAKcast winning 4 of 5 runs — a near-tie.
	// We accept the mean within 15% and report per-run outcomes.
	nakWins := 0
	for i := range s15.nak {
		if s15.nak[i].ReLate2Jit < s15.ric[i].ReLate2Jit {
			nakWins++
		}
	}
	check("C9 slow/15/10: nak ~beats ric ReLate2Jit (near-tie)",
		r2j(s15.nak) < r2j(s15.ric)*1.15,
		fmt.Sprintf("nak=%.3g ric=%.3g nak wins %d/%d runs", r2j(s15.nak), r2j(s15.ric), nakWins, len(s15.nak)))
	check("C10 ric latency lower, 15rcv both platforms",
		lat(f15.ric) < lat(f15.nak) && lat(s15.ric) < lat(s15.nak),
		fmt.Sprintf("fast %.0f<%.0f slow %.0f<%.0f", lat(f15.ric), lat(f15.nak), lat(s15.ric), lat(s15.nak)))
	check("C11 ric jitter lower, 15rcv both platforms",
		jit(f15.ric) < jit(f15.nak) && jit(s15.ric) < jit(s15.nak),
		fmt.Sprintf("fast %.0f<%.0f slow %.0f<%.0f", jit(f15.ric), jit(f15.nak), jit(s15.ric), jit(s15.nak)))
	check("C12 nak reliability > ric at 15rcv",
		rel(f15.nak) > rel(f15.ric) && rel(s15.nak) > rel(s15.ric),
		fmt.Sprintf("nak %.2f/%.2f ric %.2f/%.2f", rel(f15.nak), rel(s15.nak), rel(f15.ric), rel(s15.ric)))

	// --- Gilbert-Elliott bursty loss: fountcast vs ricochet at matched
	// bandwidth overhead. Correlated multi-packet loss bursts defeat
	// ricochet's one-XOR-per-panel repair, while the fountain code spends
	// the same repair bandwidth as freely combinable symbols. The fountain
	// overhead is calibrated to ricochet's measured byte overhead in two
	// passes, with bemcast (no repair traffic) as the zero-overhead
	// bandwidth baseline: a probe run at oh=100 measures the bytes-per-
	// overhead-point slope (repair framing differs from data framing, so
	// the configured rate and the byte ratio are not identical), then the
	// rate is rescaled to land on ricochet's byte total. The 100 Hz rate
	// keeps the fountain's block-fill delay (K x period) small relative to
	// the loss penalty, which is where a rateless code belongs.
	geCfg := experiment.Config{Machine: fast.m, Bandwidth: fast.bw, Impl: dds.ImplB,
		BurstPGB: 0.013, BurstPBG: 0.25, BurstDropBad: 1.0,
		Receivers: 3, RateHz: 100, Samples: samples, Seed: 77}
	runGE := func(spec transport.Spec) []metrics.Summary {
		cfg := geCfg
		cfg.Protocol = spec
		sums, err := experiment.RunN(cfg, runs)
		if err != nil {
			fmt.Println("ERR", err)
			os.Exit(1)
		}
		return sums
	}
	bytesOf := func(ss []metrics.Summary) float64 {
		return mean(ss, func(s metrics.Summary) float64 { return float64(s.Bytes) })
	}
	fntSpec := func(oh int) transport.Spec {
		return mustSpec(fmt.Sprintf("fountcast(hold=15ms,k=4,oh=%d)", oh))
	}
	base := runGE(mustSpec("bemcast"))
	ric := runGE(core.Candidates()[idxRicR4])
	overheadPct := func(ss []metrics.Summary) float64 {
		return 100 * (bytesOf(ss) - bytesOf(base)) / bytesOf(base)
	}
	ricOverheadPct := overheadPct(ric)
	const probeOh = 100
	probe := runGE(fntSpec(probeOh))
	oh := probeOh
	if p := overheadPct(probe); p > 0 {
		oh = int(probeOh*ricOverheadPct/p + 0.5)
	}
	if oh < 1 {
		oh = 1
	} else if oh > fountcast.MaxOverheadPct {
		oh = fountcast.MaxOverheadPct
	}
	fnt := runGE(fntSpec(oh))
	fntOverheadPct := overheadPct(fnt)
	fmt.Printf("  [GE burst pGB=%g pBG=%g rate=%gHz] ric overhead=%.1f%% -> fountcast oh=%d (measured %.1f%%)\n",
		geCfg.BurstPGB, geCfg.BurstPBG, geCfg.RateHz, ricOverheadPct, oh, fntOverheadPct)
	for _, row := range []struct {
		name string
		ss   []metrics.Summary
	}{{"ricochet(c=3,r=4)", ric}, {fntSpec(oh).String(), fnt}} {
		fmt.Printf("    %-28s rel=%6.2f lat=%7.0f r2=%9.0f bytes=%.0f\n",
			row.name, rel(row.ss), lat(row.ss), r2(row.ss), bytesOf(row.ss))
	}
	check("C13 GE burst: fountcast ReLate2 <= ricochet, matched overhead",
		r2(fnt) <= r2(ric),
		fmt.Sprintf("fnt=%.0f ric=%.0f", r2(fnt), r2(ric)))
	check("C14 GE burst: fountcast overhead within budget of ricochet's",
		fntOverheadPct <= 1.15*ricOverheadPct,
		fmt.Sprintf("fnt=%.1f%% ric=%.1f%%", fntOverheadPct, ricOverheadPct))

	fmt.Printf("\n%d failures\n", fail)
	if fail > 0 {
		os.Exit(1)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// runChaos executes the crucible matrix and reports one line per cell.
// Every cell runs twice with the same seed; a hash mismatch between the two
// runs is a determinism failure. Returns the process exit code.
func runChaos(jobs, seeds int, scenario string) int {
	scenarios := chaos.Library()
	if scenario != "" {
		sc, ok := chaos.ByName(scenario)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown scenario %q; library:\n", scenario)
			for _, s := range scenarios {
				fmt.Fprintf(os.Stderr, "  %-16s %s\n", s.Name, s.Info)
			}
			return 2
		}
		scenarios = []chaos.Scenario{sc}
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
