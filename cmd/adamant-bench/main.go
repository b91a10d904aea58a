// Command adamant-bench regenerates the paper's evaluation artifacts:
// Tables 1-2 and Figures 4-21 (see DESIGN.md for the experiment index).
//
// QoS figures (4-17) run on the deterministic network simulator; the ANN
// figures (18-21) read the labeled training set from -dataset (default
// data/training.csv), which adamant-dataset builds.
//
// -all renders the deterministic set, Tables 1-2 and Figures 4-19, whose
// bytes depend only on the flags (scripts/results.sh checks the committed
// copies). Figures 20/21 time the ANN on the host's clock, so they come
// only from -fig and are preceded by one line naming the Go version,
// platform, CPU count, GOMAXPROCS and the build's vcs revision.
//
// Examples:
//
//	adamant-bench -fig 4              # one figure
//	adamant-bench -all                # Tables 1-2 and Figures 4-19 (takes a while)
//	adamant-bench -fig 19
//	adamant-bench -fig 20,21          # host-timed
//	adamant-bench -fig 5 -samples 20000 -runs 5   # paper-scale workload
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"

	"adamant/internal/experiment"
)

func main() {
	var (
		figFlag   = flag.String("fig", "", "figure/table to regenerate: 4..21, 't1', 't2', or comma list")
		all       = flag.Bool("all", false, "regenerate every table and figure")
		samples   = flag.Int("samples", 2000, "samples per run (paper: 20000)")
		runs      = flag.Int("runs", 5, "runs per configuration (paper: 5)")
		seed      = flag.Int64("seed", 1, "simulation seed")
		dataset   = flag.String("dataset", "data/training.csv", "training-set CSV for figures 18-21 (built by adamant-dataset)")
		csvOut    = flag.Bool("csv", false, "emit CSV instead of ASCII tables")
		ablations = flag.Bool("ablations", false, "also run the design-choice ablation study (A6: fountcast vs ricochet under burst loss)")
		jobs      = flag.Int("jobs", 0, "parallel workers (0 = all CPUs)")
		verbose   = flag.Bool("v", false, "progress logging")
	)
	flag.Parse()
	if *ablations {
		tables, err := experiment.Ablations(experiment.AblationOptions{Samples: *samples, Seed: *seed, Jobs: *jobs})
		if err != nil {
			fmt.Fprintln(os.Stderr, "adamant-bench:", err)
			os.Exit(1)
		}
		for _, t := range tables {
			if *csvOut {
				fmt.Printf("# %s — %s\n%s\n", t.ID, t.Title, t.CSV())
			} else {
				fmt.Println(t.Format())
			}
		}
		if *figFlag == "" && !*all {
			return
		}
	}
	if err := run(*figFlag, *all, *samples, *runs, *seed, *dataset, *jobs, *csvOut, *verbose); err != nil {
		fmt.Fprintln(os.Stderr, "adamant-bench:", err)
		os.Exit(1)
	}
}

func run(figFlag string, all bool, samples, runs int, seed int64, dataset string,
	jobs int, csvOut, verbose bool) error {
	var wanted []string
	switch {
	case all:
		wanted = append(wanted, "t1", "t2")
		for f := 4; f <= 19; f++ {
			wanted = append(wanted, strconv.Itoa(f))
		}
	case figFlag != "":
		for _, f := range strings.Split(figFlag, ",") {
			wanted = append(wanted, strings.TrimSpace(f))
		}
	default:
		return fmt.Errorf("nothing to do: pass -fig or -all")
	}
	progress := func(string, ...any) {}
	if verbose {
		progress = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}

	needQoS, needANN, timed := false, false, false
	for _, f := range wanted {
		if n, err := strconv.Atoi(f); err == nil {
			if n >= 4 && n <= 17 {
				needQoS = true
			}
			if n >= 18 && n <= 21 {
				needANN = true
			}
			if n >= 20 && n <= 21 {
				timed = true
			}
		}
	}
	if timed {
		fmt.Println(environment())
	}

	var qos *experiment.QoSFigures
	if needQoS {
		var err error
		qos, err = experiment.RunQoSFigures(experiment.QoSOptions{
			Samples: samples, Runs: runs, Seed: seed, Jobs: jobs, Progress: progress,
		})
		if err != nil {
			return err
		}
	}
	var rows []experiment.Row
	if needANN {
		var err error
		if rows, err = experiment.ReadCSVFile(dataset); err != nil {
			return err
		}
	}

	emit := func(t experiment.Table) {
		if csvOut {
			fmt.Printf("# %s — %s\n%s\n", t.ID, t.Title, t.CSV())
		} else {
			fmt.Println(t.Format())
		}
	}
	annOpts := experiment.ANNOptions{Seed: seed, Jobs: jobs, Progress: progress}
	for _, f := range wanted {
		switch f {
		case "t1", "T1":
			emit(experiment.EnvironmentTable())
			continue
		case "t2", "T2":
			emit(experiment.ApplicationTable())
			continue
		}
		n, err := strconv.Atoi(f)
		if err != nil {
			return fmt.Errorf("unknown figure %q", f)
		}
		var tab experiment.Table
		switch {
		case n >= 4 && n <= 17:
			tab, err = qos.Figure(n)
		case n == 18:
			tab, err = experiment.Figure18(rows, annOpts)
		case n == 19:
			tab, err = experiment.Figure19(rows, annOpts)
		case n == 20:
			tab, err = experiment.Figure20(rows, annOpts)
		case n == 21:
			tab, err = experiment.Figure21(rows, annOpts)
		default:
			return fmt.Errorf("figure %d out of range (4-21)", n)
		}
		if err != nil {
			return err
		}
		emit(tab)
	}
	return nil
}

// environment names what the host-timed Figures 20/21 were measured on.
func environment() string {
	rev, modified := "unknown", ""
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range info.Settings {
			switch {
			case kv.Key == "vcs.revision":
				rev = kv.Value
			case kv.Key == "vcs.modified" && kv.Value == "true":
				modified = " (modified)"
			}
		}
	}
	return fmt.Sprintf("# host-timed, report-only: %s %s/%s, NumCPU %d, GOMAXPROCS %d, revision %s%s",
		runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.GOMAXPROCS(0), rev, modified)
}
