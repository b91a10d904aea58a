package adamant_test

// Repository-level benchmark suite: one benchmark per paper table and
// figure (see DESIGN.md's experiment index), plus end-to-end micro
// benchmarks. Each BenchmarkFigNN regenerates a scaled-down version of the
// corresponding figure's workload and reports its headline series through
// b.ReportMetric, so `go test -bench=.` doubles as a smoke reproduction.
//
// Absolute figure regeneration at paper scale is the adamant-bench
// command's job; these benches keep the workloads small enough to run in a
// normal benchmark session.

import (
	"os"
	"sync"
	"testing"

	"adamant/internal/ann"
	"adamant/internal/core"
	"adamant/internal/dds"
	"adamant/internal/experiment"
	"adamant/internal/metrics"
	"adamant/internal/netem"
)

const benchSamples = 500

// benchConfig builds the experiment config for one figure cell.
func benchConfig(fast bool, receivers int, rateHz float64, protoIdx int) experiment.Config {
	machine, bw := netem.PC850, netem.Mbps100
	if fast {
		machine, bw = netem.PC3000, netem.Gbps1
	}
	return experiment.Config{
		Machine:   machine,
		Bandwidth: bw,
		Impl:      dds.ImplB,
		LossPct:   5,
		Receivers: receivers,
		RateHz:    rateHz,
		Samples:   benchSamples,
		Protocol:  core.Candidates()[protoIdx],
		Seed:      1,
	}
}

// runQoSBench executes both figure protocols over the cell b.N times and
// reports the projected metric per protocol.
func runQoSBench(b *testing.B, fast bool, receivers int, rateHz float64,
	field func(metrics.Summary) float64, unit string) {
	b.Helper()
	var nak, ric metrics.Summary
	for i := 0; i < b.N; i++ {
		var err error
		nak, err = experiment.Run(benchConfig(fast, receivers, rateHz, 3))
		if err != nil {
			b.Fatal(err)
		}
		ric, err = experiment.Run(benchConfig(fast, receivers, rateHz, 4))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(field(nak), "nakcast1ms_"+unit)
	b.ReportMetric(field(ric), "ricochetR4C3_"+unit)
}

// runnerBenchConfigs builds a batch of independent runs spanning both
// platforms and both figure protocols, for the serial-vs-parallel engine
// comparison.
func runnerBenchConfigs(n int) []experiment.Config {
	cfgs := make([]experiment.Config, n)
	for i := range cfgs {
		cfgs[i] = benchConfig(i%2 == 0, 3, 25, 3+i%2)
		cfgs[i].Seed = int64(i + 1)
	}
	return cfgs
}

// BenchmarkRunManySerial is the single-worker baseline for the experiment
// engine; BenchmarkRunManyParallel runs the same batch at GOMAXPROCS width.
// Their ratio is the engine's speedup on this machine (results are
// byte-identical either way — see TestBuildDatasetParallelByteIdentical).
func BenchmarkRunManySerial(b *testing.B) {
	cfgs := runnerBenchConfigs(8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (&experiment.Runner{Jobs: 1}).RunMany(cfgs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunManyParallel(b *testing.B) {
	cfgs := runnerBenchConfigs(8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (&experiment.Runner{}).RunMany(cfgs); err != nil {
			b.Fatal(err)
		}
	}
}

func relate2(s metrics.Summary) float64    { return s.ReLate2 }
func relate2jit(s metrics.Summary) float64 { return s.ReLate2Jit }
func latency(s metrics.Summary) float64    { return s.AvgLatencyUs }
func jitter(s metrics.Summary) float64     { return s.JitterUs }

func BenchmarkTable1EnvironmentSpace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if got := len(experiment.FullSpace()); got != 1200 {
			b.Fatalf("space = %d", got)
		}
	}
	b.ReportMetric(1200, "combos")
}

func BenchmarkTable2ApplicationSpace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(experiment.ApplicationTable().Rows) != 2 {
			b.Fatal("bad table")
		}
	}
}

func BenchmarkFig04ReLate2Fast10Hz(b *testing.B) { runQoSBench(b, true, 3, 10, relate2, "relate2") }
func BenchmarkFig04ReLate2Fast25Hz(b *testing.B) { runQoSBench(b, true, 3, 25, relate2, "relate2") }
func BenchmarkFig05ReLate2Slow10Hz(b *testing.B) { runQoSBench(b, false, 3, 10, relate2, "relate2") }
func BenchmarkFig05ReLate2Slow25Hz(b *testing.B) { runQoSBench(b, false, 3, 25, relate2, "relate2") }
func BenchmarkFig06ReliabilityFast(b *testing.B) {
	runQoSBench(b, true, 3, 10, metrics.Summary.Reliability, "pct")
}
func BenchmarkFig07ReliabilitySlow(b *testing.B) {
	runQoSBench(b, false, 3, 10, metrics.Summary.Reliability, "pct")
}
func BenchmarkFig08LatencyFast(b *testing.B)    { runQoSBench(b, true, 3, 10, latency, "us") }
func BenchmarkFig09LatencySlow(b *testing.B)    { runQoSBench(b, false, 3, 10, latency, "us") }
func BenchmarkFig10ReLate2JitFast(b *testing.B) { runQoSBench(b, true, 15, 10, relate2jit, "r2j") }
func BenchmarkFig11ReLate2JitSlow(b *testing.B) { runQoSBench(b, false, 15, 10, relate2jit, "r2j") }
func BenchmarkFig12LatencyFast15(b *testing.B)  { runQoSBench(b, true, 15, 10, latency, "us") }
func BenchmarkFig13LatencySlow15(b *testing.B)  { runQoSBench(b, false, 15, 10, latency, "us") }
func BenchmarkFig14JitterFast15(b *testing.B)   { runQoSBench(b, true, 15, 10, jitter, "us") }
func BenchmarkFig15JitterSlow15(b *testing.B)   { runQoSBench(b, false, 15, 10, jitter, "us") }
func BenchmarkFig16ReliabilityFast15(b *testing.B) {
	runQoSBench(b, true, 15, 10, metrics.Summary.Reliability, "pct")
}
func BenchmarkFig17ReliabilitySlow15(b *testing.B) {
	runQoSBench(b, false, 15, 10, metrics.Summary.Reliability, "pct")
}

// --- ANN figures (18-21) use the committed training set when present. ---

var (
	datasetOnce sync.Once
	datasetRows []experiment.Row
	datasetErr  error
)

func benchRows(b *testing.B) []experiment.Row {
	b.Helper()
	datasetOnce.Do(func() {
		if _, err := os.Stat("data/training.csv"); err == nil {
			datasetRows, datasetErr = experiment.ReadCSVFile("data/training.csv")
			return
		}
		datasetRows, datasetErr = experiment.BuildDataset(experiment.DatasetOptions{
			Combos: 24, Runs: 1, Samples: 300, Seed: 1,
		})
	})
	if datasetErr != nil {
		b.Fatal(datasetErr)
	}
	return datasetRows
}

func benchANNOpts() experiment.ANNOptions {
	return experiment.ANNOptions{
		HiddenSizes:   []int{24},
		TrainsPerSize: 1,
		Folds:         10,
		StopError:     1e-4,
		MaxEpochs:     800,
		Seed:          1,
	}
}

func BenchmarkFig18TrainingAccuracy(b *testing.B) {
	rows := benchRows(b)
	var tab experiment.Table
	for i := 0; i < b.N; i++ {
		var err error
		tab, err = experiment.Figure18(rows, benchANNOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	_ = tab
}

func BenchmarkFig19CrossValidation(b *testing.B) {
	rows := benchRows(b)
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Figure19(rows, benchANNOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig20QueryMean(b *testing.B) {
	rows := benchRows(b)
	timings, err := experiment.QueryTimings(rows, 2, benchANNOpts())
	if err != nil {
		b.Fatal(err)
	}
	// The per-query benchmark: what Figure 20 measures.
	ds := experiment.ToANNDataset(rows)
	net := trainBenchNet(b, ds)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := net.Classify(ds.Inputs[i%ds.Len()]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(timings[0].MeanUs, "mean_us")
}

func BenchmarkFig21QueryStdDev(b *testing.B) {
	rows := benchRows(b)
	timings, err := experiment.QueryTimings(rows, 2, benchANNOpts())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(timings[0].StdDevUs, "stddev_us")
	for i := 0; i < b.N; i++ {
		_ = timings
	}
}

func trainBenchNet(b *testing.B, ds *ann.Dataset) *ann.Network {
	b.Helper()
	net, err := ann.New(ann.Config{Layers: []int{core.NumInputs, 24, core.NumCandidates}, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := net.Train(ds, ann.TrainOptions{MaxEpochs: 300, DesiredError: 1e-4}); err != nil {
		b.Fatal(err)
	}
	return net
}

// BenchmarkANNQuery is the paper's headline timing claim in isolation:
// one configuration decision (<10us with bounded complexity).
func BenchmarkANNQuery(b *testing.B) {
	rows := benchRows(b)
	ds := experiment.ToANNDataset(rows)
	net := trainBenchNet(b, ds)
	in := ds.Inputs[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := net.Classify(in); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkANNAccuracy measures Accuracy over the whole dataset per
// iteration (the inner loop of cross-validation and Figure 18).
func BenchmarkANNAccuracy(b *testing.B) {
	rows := benchRows(b)
	ds := experiment.ToANNDataset(rows)
	net := trainBenchNet(b, ds)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := net.Accuracy(ds); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkANNTrainEpochs measures RPROP training throughput: a fixed
// 30-epoch run per iteration.
func BenchmarkANNTrainEpochs(b *testing.B) {
	rows := benchRows(b)
	ds := experiment.ToANNDataset(rows)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net, err := ann.New(ann.Config{Layers: []int{core.NumInputs, 24, core.NumCandidates}, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := net.Train(ds, ann.TrainOptions{MaxEpochs: 30, DesiredError: 1e-12}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEndToEndSim measures simulator throughput: one full experiment
// run per iteration.
func BenchmarkEndToEndSim(b *testing.B) {
	cfg := benchConfig(true, 3, 25, 3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProtocolSweep runs every candidate protocol once (the dataset
// generator's inner loop).
func BenchmarkProtocolSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for idx := range core.Candidates() {
			if _, err := experiment.Run(benchConfig(true, 3, 50, idx)); err != nil {
				b.Fatal(err)
			}
		}
	}
}
