// Command adamant-train trains and evaluates the ADAMANT neural-network
// configurator on a labeled dataset, -dataset (default data/training.csv),
// which adamant-dataset builds. -jobs workers parallelize the gradient
// accumulation inside each training and the cross-validation folds;
// trained weights are byte-identical at any worker count. The hidden-node
// sweep of Figures 18/19 is adamant-bench -fig 18,19.
//
//	adamant-train -hidden 24 -save adamant.ann
//	adamant-train -cv                 # 10-fold CV
package main

import (
	"flag"
	"fmt"
	"os"

	"adamant/internal/ann"
	"adamant/internal/core"
	"adamant/internal/experiment"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "adamant-train:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		dataset   = flag.String("dataset", "data/training.csv", "training CSV (built by adamant-dataset)")
		jobs      = flag.Int("jobs", 0, "parallel workers for training and CV (0 = all CPUs)")
		hidden    = flag.Int("hidden", 24, "hidden nodes (paper's best: 24)")
		stopError = flag.Float64("stop", 1e-4, "MSE stopping error")
		maxEpochs = flag.Int("epochs", 2000, "max training epochs")
		seed      = flag.Int64("seed", 1, "weight-init seed")
		save      = flag.String("save", "", "write the trained network to this path")
		cv        = flag.Bool("cv", false, "10-fold cross-validation instead of full training")
	)
	flag.Parse()
	rows, err := experiment.ReadCSVFile(*dataset)
	if err != nil {
		return err
	}

	ds := experiment.ToANNDataset(rows)
	cfg := ann.Config{Layers: []int{core.NumInputs, *hidden, core.NumCandidates}, Seed: *seed}
	if *cv {
		res, err := ann.CrossValidate(cfg, ds, 10, ann.TrainOptions{
			MaxEpochs: *maxEpochs, DesiredError: *stopError, Jobs: *jobs,
		})
		if err != nil {
			return err
		}
		fmt.Printf("10-fold CV: mean accuracy %.2f%% (train %.2f%%)\n",
			100*res.MeanAccuracy, 100*res.TrainAccuracy)
		for i, a := range res.FoldAccuracy {
			fmt.Printf("  fold %2d: %.2f%%\n", i+1, 100*a)
		}
		return nil
	}

	net, err := ann.New(cfg)
	if err != nil {
		return err
	}
	tr, err := net.Train(ds, ann.TrainOptions{MaxEpochs: *maxEpochs, DesiredError: *stopError, Jobs: *jobs})
	if err != nil {
		return err
	}
	acc, err := net.Accuracy(ds)
	if err != nil {
		return err
	}
	fmt.Printf("trained %d rows: epochs=%d mse=%.6f converged=%v accuracy=%.2f%%\n",
		ds.Len(), tr.Epochs, tr.MSE, tr.Converged, 100*acc)
	if *save != "" {
		if err := net.SaveFile(*save); err != nil {
			return err
		}
		fmt.Printf("saved network to %s\n", *save)
	}
	return nil
}
