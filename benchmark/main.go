// Command benchmark is the repository's one frozen yardstick: four
// workloads, end-to-end metrics with bounds, and per-layer metrics taken
// from outside the product code. See README.md and ../BENCHMARK.json.
//
//	go run . -workload fanout_small -seed 1 -seconds 20 -trace 0
//	go run . -all -out out/a.json        # every workload, traced and not
//	go run . -compare out/a.json out/b.json
//	go run . -smoke                      # every workload for about a second
//
// The last line of a single-workload run is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"adamant/benchmark/brokerwl"
	"adamant/benchmark/ddswl"
	"adamant/benchmark/report"
	"adamant/benchmark/sut"
)

// Seeds on record: runs made while developing use DefaultSeed; HeldOutSeed
// is for checking that a claim does not depend on the seed it was tuned on.
const (
	DefaultSeed = 1
	HeldOutSeed = 20100612
)

// setups is how many times a run sets its system up; setup_s is the median.
const setups = 15

// smokeSeconds is the measured time of a -smoke run of one workload.
const smokeSeconds = 1.0

// options are the command line.
type options struct {
	role, id, workload        string
	all, smoke, compare, spec bool
	seed                      int64
	seconds                   float64
	trace                     int
	out, repo                 string
}

func main() {
	var o options
	flag.StringVar(&o.role, "role", "", "internal: \"broker\" runs a broker child process")
	flag.StringVar(&o.id, "id", "A", "internal: server ID of a broker child")
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	flag.BoolVar(&o.all, "all", false, "run every workload, untraced then traced")
	flag.BoolVar(&o.smoke, "smoke", false, "run every workload traced for about a second, checks on, no bounds")
	flag.BoolVar(&o.compare, "compare", false, "compare two result files given as arguments")
	flag.BoolVar(&o.spec, "spec", false, "print BENCHMARK.json as the metric tables define it")
	flag.Int64Var(&o.seed, "seed", DefaultSeed, "seed of every generated input")
	flag.Float64Var(&o.seconds, "seconds", runSeconds, "measured seconds per run")
	flag.IntVar(&o.trace, "trace", 0, "1 repeats the workload with the recorders on and prints the per-layer metrics")
	flag.StringVar(&o.out, "out", "", "result file to append the runs to")
	flag.StringVar(&o.repo, "repo", "..", "repository root (for data/adamant.ann and benchmark/out)")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// runSeconds is BENCHMARK.json's run_seconds: what the driver passes as
// --seconds. 92 driver runs of about this length, with set-up, drains and two
// builds, fit its 3420 s with a margin.
const runSeconds = 24

// benchmarkJSON renders the contract file from the tables in report.
func benchmarkJSON() []byte {
	type workload struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type perLayer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string        `json:"command"`
		Paths      []string        `json:"paths"`
		RunSeconds int             `json:"run_seconds"`
		Workloads  []workload      `json:"workloads"`
		EndToEnd   []report.Metric `json:"end_to_end"`
		PerLayer   []perLayer      `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		EndToEnd:   report.EndToEnd,
	}
	for _, w := range report.Workloads {
		doc.Workloads = append(doc.Workloads, workload{w.Name, w.Why})
	}
	for _, m := range report.PerLayer {
		doc.PerLayer = append(doc.PerLayer, perLayer{m.Name, m.Unit, m.Better})
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err) // the tables are static
	}
	return append(b, '\n')
}

func workloadNames() []string {
	var names []string
	for _, w := range report.Workloads {
		names = append(names, w.Name)
	}
	return names
}

func run(o options) error {
	switch {
	case o.role == "broker":
		return sut.ServeChild(o.id, o.seed, os.Stdin, os.Stdout)
	case o.role != "":
		return fmt.Errorf("unknown role %q", o.role)
	case o.spec:
		_, err := os.Stdout.Write(benchmarkJSON())
		return err
	case o.compare:
		return compareFiles(flag.Args())
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	r := runner{exe: exe, seed: o.seed, seconds: o.seconds, repo: o.repo}
	var runs []report.Run
	switch {
	case o.smoke:
		r.seconds, r.smoke = smokeSeconds, true
		for _, name := range workloadNames() {
			res, err := r.one(name, true)
			if err != nil {
				return err
			}
			fmt.Printf("smoke %s: correct=%v attempted=%d failed=%d\n", name, res.Correct, res.Attempted, res.Failed)
			runs = append(runs, res)
		}
	case o.all:
		for _, name := range workloadNames() {
			for _, traced := range []bool{false, true} {
				res, err := r.one(name, traced)
				if err != nil {
					return err
				}
				printMetrics(res)
				runs = append(runs, res)
			}
		}
	case o.workload != "":
		res, err := r.one(o.workload, o.trace == 1)
		if err != nil {
			return err
		}
		printMetrics(res)
		runs = append(runs, res)
	default:
		flag.Usage()
		return fmt.Errorf("nothing to do: give -workload, -all, -smoke or -compare")
	}
	if o.out != "" {
		if err := report.Append(o.out, report.Stamp(o.repo), runs); err != nil {
			return err
		}
	}
	bad := false
	for _, res := range runs {
		if !res.Correct {
			fmt.Fprintf(os.Stderr, "benchmark: %s: output check failed: %d of %d operations failed; detail: %v %v %v\n",
				res.Workload, res.Failed, res.Attempted, res.Detail["failures"], res.Detail["stats_check"], res.Detail["problems"])
			bad = true
		}
	}
	if o.workload != "" && !o.all && !o.smoke {
		line, err := runs[0].ContractLine()
		if err != nil {
			return err
		}
		fmt.Println(line)
	}
	if bad {
		return fmt.Errorf("output checks failed")
	}
	return nil
}

type runner struct {
	exe     string
	seed    int64
	seconds float64
	repo    string
	smoke   bool
	outDir  string // span files; default <repo>/benchmark/out
}

// one runs a workload once and completes its metrics: every metric of the
// table is present with its unit, 0 where the workload has nothing to say.
func (r runner) one(name string, traced bool) (report.Run, error) {
	var res report.Run
	var err error
	outDir := r.outDir
	if outDir == "" {
		outDir = filepath.Join(r.repo, "benchmark", "out")
	}
	switch name {
	case "fanout_small", "routed_large", "mesh_hop":
		res, err = brokerwl.Run(name, brokerwl.Options{
			Exe: r.exe, Seed: r.seed, Seconds: r.seconds, Trace: traced, Setups: setups,
			OutDir: outDir,
		})
	case "dds_sim":
		res, err = ddswl.Run(ddswl.Options{
			Seed: r.seed, Seconds: r.seconds, Trace: traced, Smoke: r.smoke, Setups: setups,
			Repo: r.repo, OutDir: outDir,
		})
	default:
		return res, fmt.Errorf("no workload %q (have %s)", name, strings.Join(workloadNames(), ", "))
	}
	if err != nil {
		return res, err
	}
	table := report.EndToEnd
	if traced {
		table = report.PerLayer
	}
	metrics := make(map[string]report.Value, len(table))
	for _, m := range table {
		metrics[m.Name] = report.Value{Value: res.Metrics[m.Name].Value, Unit: m.Unit}
		delete(res.Metrics, m.Name)
	}
	if len(res.Metrics) > 0 {
		return res, fmt.Errorf("%s reported metrics the tables do not have: %v", name, res.Metrics)
	}
	res.Metrics = metrics
	t := 0
	if traced {
		t = 1
	}
	res.Command = fmt.Sprintf("bash benchmark/run.sh --workload %s --seed %d --seconds %g --trace %d", name, r.seed, r.seconds, t)
	return res, nil
}

// printMetrics prints every metric by name with its unit.
func printMetrics(res report.Run) {
	mode := "untraced, end-to-end metrics"
	if res.Trace {
		mode = "traced, per-layer metrics"
	}
	fmt.Printf("# %s seed=%d seconds=%g (%s)\n", res.Workload, res.Seed, res.Seconds, mode)
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := res.Metrics[name]
		fmt.Printf("%-40s %14.6g %s\n", name, v.Value, v.Unit)
	}
	fmt.Printf("%-40s %14d\n%-40s %14d\n", "attempted", res.Attempted, "failed", res.Failed)
}

func compareFiles(paths []string) error {
	if len(paths) != 2 {
		return fmt.Errorf("-compare needs two result files, got %d", len(paths))
	}
	a, err := report.Load(paths[0])
	if err != nil {
		return err
	}
	b, err := report.Load(paths[1])
	if err != nil {
		return err
	}
	if a.Env != b.Env {
		fmt.Printf("note: environments differ:\n a: %+v\n b: %+v\n", a.Env, b.Env)
	}
	if report.Compare(os.Stdout, a, b) {
		return fmt.Errorf("regressed")
	}
	return nil
}
