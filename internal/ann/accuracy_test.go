package ann_test

import (
	"testing"

	"adamant/internal/ann"
	"adamant/internal/experiment"
)

// TestAccuracyBatchMatchesClassify scores the shipped model on the shipped
// training set: Accuracy must count exactly the samples that a Classify
// loop gets right.
func TestAccuracyBatchMatchesClassify(t *testing.T) {
	rows, err := experiment.ReadCSVFile("../../data/training.csv")
	if err != nil {
		t.Fatal(err)
	}
	ds := experiment.ToANNDataset(rows)
	net, err := ann.LoadFile("../../data/adamant.ann")
	if err != nil {
		t.Fatal(err)
	}
	got, err := net.Accuracy(ds)
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for s, in := range ds.Inputs {
		cls, err := net.Classify(in)
		if err != nil {
			t.Fatal(err)
		}
		if ds.Targets[s][cls] == 1 {
			correct++
		}
	}
	if want := float64(correct) / float64(ds.Len()); got != want {
		t.Errorf("Accuracy = %v, a Classify loop gives %d/%d = %v", got, correct, ds.Len(), want)
	}
}
