package adamant_test

// Repository-level micro benchmarks: the experiment engine, the simulator
// end to end, and the ANN's query, accuracy and training kernels. The paper's
// tables and figures come from adamant-bench (see DESIGN.md's experiment
// index), not from here.

import (
	"os"
	"sync"
	"testing"

	"adamant/internal/ann"
	"adamant/internal/core"
	"adamant/internal/dds"
	"adamant/internal/experiment"
	"adamant/internal/netem"
)

const benchSamples = 500

// benchConfig builds a 500-sample run on the fast (pc3000/1Gb) or slow
// (pc850/100Mb) platform with the candidate at protoIdx.
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

// The ANN benchmarks use the committed training set when present.

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
