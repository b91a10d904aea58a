package ann

import (
	"bytes"
	"testing"
)

// trainedBytes trains a fresh network with the given worker count and
// returns its serialized weights.
func trainedBytes(t *testing.T, ds *Dataset, jobs int) []byte {
	t.Helper()
	net, err := New(Config{Layers: []int{6, 16, 4}, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Train(ds, TrainOptions{MaxEpochs: 60, DesiredError: 1e-9, Jobs: jobs}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := net.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTrainParallelByteIdentical is the ISSUE's determinism contract:
// trained weights must be byte-identical across -jobs 1/2/8. The dataset
// spans several gradient shards so the parallel path is fully exercised.
func TestTrainParallelByteIdentical(t *testing.T) {
	ds := randomDataset(6, 4, 120, 42)
	serial := trainedBytes(t, ds, 1)
	for _, jobs := range []int{2, 8} {
		if got := trainedBytes(t, ds, jobs); !bytes.Equal(got, serial) {
			t.Errorf("jobs=%d produced different trained weights than jobs=1", jobs)
		}
	}
}

func TestCrossValidateParallelIdentical(t *testing.T) {
	ds := randomDataset(5, 3, 90, 11)
	cfg := Config{Layers: []int{5, 12, 3}, Seed: 3}
	opts := TrainOptions{MaxEpochs: 40, DesiredError: 1e-9}
	optsSerial := opts
	optsSerial.Jobs = 1
	serial, err := CrossValidate(cfg, ds, 6, optsSerial)
	if err != nil {
		t.Fatal(err)
	}
	optsPar := opts
	optsPar.Jobs = 8
	par, err := CrossValidate(cfg, ds, 6, optsPar)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.FoldAccuracy) != len(par.FoldAccuracy) {
		t.Fatalf("fold count: %d vs %d", len(serial.FoldAccuracy), len(par.FoldAccuracy))
	}
	for f := range serial.FoldAccuracy {
		if serial.FoldAccuracy[f] != par.FoldAccuracy[f] {
			t.Errorf("fold %d accuracy %v (serial) != %v (8 workers)", f, serial.FoldAccuracy[f], par.FoldAccuracy[f])
		}
	}
	if serial.MeanAccuracy != par.MeanAccuracy || serial.TrainAccuracy != par.TrainAccuracy {
		t.Errorf("aggregate accuracy mismatch: %+v vs %+v", serial, par)
	}
}

// TestRunBatchShapeErrors checks Accuracy's shape errors: an empty
// dataset, a wrong input or target width, and missing targets.
func TestRunBatchShapeErrors(t *testing.T) {
	net, err := New(Config{Layers: []int{3, 4, 2}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for name, ds := range map[string]*Dataset{
		"empty":          {},
		"input width":    {Inputs: [][]float64{{1, 2}}, Targets: [][]float64{{1, 0}}},
		"target width":   {Inputs: [][]float64{{1, 2, 3}}, Targets: [][]float64{{1}}},
		"missing target": {Inputs: [][]float64{{1, 2, 3}}},
	} {
		if _, err := net.Accuracy(ds); err == nil {
			t.Errorf("Accuracy with %s should error", name)
		}
	}
}
