package ann

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func xorDataset() *Dataset {
	var ds Dataset
	ds.Add([]float64{0, 0}, []float64{0})
	ds.Add([]float64{0, 1}, []float64{1})
	ds.Add([]float64{1, 0}, []float64{1})
	ds.Add([]float64{1, 1}, []float64{0})
	return &ds
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Layers: nil},
		{Layers: []int{3}},
		{Layers: []int{3, 0, 2}},
		{Layers: []int{3, -1}},
		{Layers: []int{2, 2}, Steepness: -1},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted: %+v", i, cfg)
		}
	}
	if _, err := New(Config{Layers: []int{2, 3, 1}}); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestRunShapeChecks(t *testing.T) {
	n, err := New(Config{Layers: []int{3, 4, 2}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Run([]float64{1, 2}); err == nil {
		t.Error("wrong input size accepted")
	}
	out, err := n.Run([]float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Errorf("output size %d, want 2", len(out))
	}
	for _, v := range out {
		if v < 0 || v > 1 {
			t.Errorf("sigmoid output %v outside [0,1]", v)
		}
	}
}

func TestDeterministicInit(t *testing.T) {
	a, err := New(Config{Layers: []int{2, 3, 1}, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(Config{Layers: []int{2, 3, 1}, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	oa, _ := a.Run([]float64{0.3, 0.7})
	ob, _ := b.Run([]float64{0.3, 0.7})
	if oa[0] != ob[0] {
		t.Error("same seed should give identical networks")
	}
	c, err := New(Config{Layers: []int{2, 3, 1}, Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	oc, _ := c.Run([]float64{0.3, 0.7})
	if oa[0] == oc[0] {
		t.Error("different seeds gave identical output (suspicious)")
	}
}

func TestTrainXORWithRPROP(t *testing.T) {
	n, err := New(Config{Layers: []int{2, 6, 1}, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	res, err := n.Train(xorDataset(), TrainOptions{MaxEpochs: 3000, DesiredError: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("XOR did not converge: %+v", res)
	}
	for _, tc := range []struct {
		in   []float64
		want float64
	}{
		{[]float64{0, 0}, 0}, {[]float64{0, 1}, 1},
		{[]float64{1, 0}, 1}, {[]float64{1, 1}, 0},
	} {
		out, err := n.Run(tc.in)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(out[0]-tc.want) > 0.2 {
			t.Errorf("XOR(%v) = %.3f, want ~%v", tc.in, out[0], tc.want)
		}
	}
}

func TestTrainLowersStoppingError(t *testing.T) {
	// Lower stopping error must not yield a worse final MSE.
	train := func(desired float64) float64 {
		n, err := New(Config{Layers: []int{2, 6, 1}, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		res, err := n.Train(xorDataset(), TrainOptions{MaxEpochs: 3000, DesiredError: desired})
		if err != nil {
			t.Fatal(err)
		}
		return res.MSE
	}
	loose, tight := train(0.01), train(0.0001)
	if tight > loose {
		t.Errorf("tighter stopping error produced higher MSE: %.6f > %.6f", tight, loose)
	}
}

func TestTrainErrors(t *testing.T) {
	n, err := New(Config{Layers: []int{2, 2, 1}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Train(&Dataset{}, TrainOptions{}); err == nil {
		t.Error("empty dataset should error")
	}
	var bad Dataset
	bad.Add([]float64{1}, []float64{1})
	if _, err := n.Train(&bad, TrainOptions{}); err == nil {
		t.Error("shape mismatch should error")
	}
	var badOut Dataset
	badOut.Add([]float64{1, 2}, []float64{1, 2})
	if _, err := n.Train(&badOut, TrainOptions{}); err == nil {
		t.Error("target shape mismatch should error")
	}
}

func TestClassifyAndAccuracy(t *testing.T) {
	// Learnable 3-class toy problem: one-hot of argmax of inputs.
	var ds Dataset
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 60; i++ {
		in := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		ds.Add(in, OneHot(3, argmax(in)))
	}
	n, err := New(Config{Layers: []int{3, 12, 3}, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Train(&ds, TrainOptions{MaxEpochs: 2000, DesiredError: 0.01}); err != nil {
		t.Fatal(err)
	}
	acc, err := n.Accuracy(&ds)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.9 {
		t.Errorf("training accuracy %.2f, want >= 0.9", acc)
	}
	if _, err := n.Accuracy(&Dataset{}); err == nil {
		t.Error("accuracy on empty dataset should error")
	}
	if _, err := n.Classify([]float64{1}); err == nil {
		t.Error("classify with wrong shape should error")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	n, err := New(Config{Layers: []int{4, 8, 3}, Seed: 11, Steepness: 0.7})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Train(randomDataset(4, 3, 20, 13), TrainOptions{MaxEpochs: 50}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := n.Save(&buf); err != nil {
		t.Fatal(err)
	}
	m, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	in := []float64{0.1, 0.5, 0.9, 0.2}
	a, _ := n.Run(in)
	aCopy := append([]float64(nil), a...)
	b, _ := m.Run(in)
	for i := range aCopy {
		if math.Abs(aCopy[i]-b[i]) > 1e-12 {
			t.Fatalf("output %d differs after round-trip: %v vs %v", i, aCopy[i], b[i])
		}
	}
	if got := m.Layers(); len(got) != 3 || got[0] != 4 || got[1] != 8 || got[2] != 3 {
		t.Errorf("Layers() after load = %v", got)
	}
}

// Property: save/load round-trips for arbitrary shapes.
func TestSaveLoadProperty(t *testing.T) {
	f := func(seed int64, l1, l2 uint8) bool {
		layers := []int{1 + int(l1%8), 1 + int(l2%16), 2}
		n, err := New(Config{Layers: layers, Seed: seed})
		if err != nil {
			return false
		}
		var buf bytes.Buffer
		if err := n.Save(&buf); err != nil {
			return false
		}
		m, err := Load(&buf)
		if err != nil {
			return false
		}
		in := make([]float64, layers[0])
		for i := range in {
			in[i] = 0.5
		}
		a, _ := n.Run(in)
		aCopy := append([]float64(nil), a...)
		b, _ := m.Run(in)
		for i := range aCopy {
			if aCopy[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestLoadErrors(t *testing.T) {
	cases := []string{
		"",
		"WRONG HEADER\n",
		"ADAMANT-ANN 1\nsteepness x\n",
		"ADAMANT-ANN 1\nsteepness 0.5\nlayers 2\n",
		"ADAMANT-ANN 1\nsteepness 0.5\nlayers 2 x\n",
		"ADAMANT-ANN 1\nsteepness 0.5\nlayers 2 1\nweights 0 1 2\n",   // wrong count
		"ADAMANT-ANN 1\nsteepness 0.5\nlayers 2 1\nweights 0 a b c\n", // bad float
		"ADAMANT-ANN 1\nsteepness 0.5\nlayers 2 1\n",                  // missing weights
	}
	for i, c := range cases {
		if _, err := Load(bytes.NewReader([]byte(c))); err == nil {
			t.Errorf("case %d: bad input accepted", i)
		}
	}
}

func TestSaveLoadFile(t *testing.T) {
	n, err := New(Config{Layers: []int{2, 2, 1}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/net.ann"
	if err := n.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(path + ".missing"); err == nil {
		t.Error("missing file should error")
	}
}

func TestRunIsAllocationFree(t *testing.T) {
	n, err := New(Config{Layers: []int{9, 24, 6}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	in := make([]float64, 9)
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := n.Run(in); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Run allocates %.1f objects per call; queries must be allocation-free", allocs)
	}
}

func TestNumConnections(t *testing.T) {
	n, err := New(Config{Layers: []int{9, 24, 6}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := (9+1)*24 + (24+1)*6
	if got := n.NumConnections(); got != want {
		t.Errorf("NumConnections = %d, want %d", got, want)
	}
}

func TestKFoldPartitionLaws(t *testing.T) {
	folds, err := KFold(103, 10, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(folds) != 10 {
		t.Fatalf("got %d folds", len(folds))
	}
	seen := map[int]bool{}
	for _, fold := range folds {
		if len(fold) < 10 || len(fold) > 11 {
			t.Errorf("fold size %d, want 10 or 11", len(fold))
		}
		for _, idx := range fold {
			if seen[idx] {
				t.Fatalf("index %d in two folds", idx)
			}
			seen[idx] = true
		}
	}
	if len(seen) != 103 {
		t.Errorf("folds cover %d indices, want 103", len(seen))
	}
}

// Property: folds are always a partition.
func TestKFoldProperty(t *testing.T) {
	f := func(nRaw uint8, kRaw uint8, seed int64) bool {
		k := 2 + int(kRaw%9)
		n := k + int(nRaw)
		folds, err := KFold(n, k, seed)
		if err != nil {
			return false
		}
		seen := map[int]bool{}
		for _, fold := range folds {
			for _, idx := range fold {
				if idx < 0 || idx >= n || seen[idx] {
					return false
				}
				seen[idx] = true
			}
		}
		return len(seen) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestKFoldErrors(t *testing.T) {
	if _, err := KFold(10, 1, 0); err == nil {
		t.Error("k=1 should error")
	}
	if _, err := KFold(3, 10, 0); err == nil {
		t.Error("n<k should error")
	}
}

func TestCrossValidate(t *testing.T) {
	// Learnable problem: class = argmax of 2 inputs.
	var ds Dataset
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 80; i++ {
		in := []float64{rng.Float64(), rng.Float64()}
		ds.Add(in, OneHot(2, argmax(in)))
	}
	res, err := CrossValidate(Config{Layers: []int{2, 8, 2}, Seed: 6}, &ds, 5,
		TrainOptions{MaxEpochs: 500, DesiredError: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.FoldAccuracy) != 5 {
		t.Fatalf("FoldAccuracy has %d entries", len(res.FoldAccuracy))
	}
	if res.MeanAccuracy < 0.8 {
		t.Errorf("CV accuracy %.2f, want >= 0.8 on a learnable problem", res.MeanAccuracy)
	}
	if res.TrainAccuracy < res.MeanAccuracy-0.05 {
		t.Errorf("train accuracy %.2f should be >= held-out %.2f",
			res.TrainAccuracy, res.MeanAccuracy)
	}
	if _, err := CrossValidate(Config{Layers: []int{2, 2, 2}}, &ds, 1, TrainOptions{}); err == nil {
		t.Error("k=1 should error")
	}
}

func TestOneHot(t *testing.T) {
	v := OneHot(4, 2)
	if len(v) != 4 || v[2] != 1 || v[0] != 0 {
		t.Errorf("OneHot = %v", v)
	}
	if out := OneHot(3, -1); out[0] != 0 || out[1] != 0 || out[2] != 0 {
		t.Error("out-of-range class should give zero vector")
	}
}

func TestSubset(t *testing.T) {
	var ds Dataset
	for i := 0; i < 5; i++ {
		ds.Add([]float64{float64(i)}, []float64{float64(i * 10)})
	}
	s := ds.Subset([]int{4, 0})
	if s.Len() != 2 || s.Inputs[0][0] != 4 || s.Targets[1][0] != 0 {
		t.Errorf("Subset wrong: %+v", s)
	}
}

func randomDataset(in, out, n int, seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	var ds Dataset
	for i := 0; i < n; i++ {
		input := make([]float64, in)
		for j := range input {
			input[j] = rng.Float64()
		}
		ds.Add(input, OneHot(out, rng.Intn(out)))
	}
	return &ds
}

// BenchmarkRun10x24x7 is one forward pass of the shipped 10-24-7 model.
func BenchmarkRun10x24x7(b *testing.B) {
	n, err := LoadFile(adamantModel)
	if err != nil {
		b.Fatal(err)
	}
	in := make([]float64, 10)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := n.Run(in); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTrainEpochRPROP(b *testing.B) {
	ds := randomDataset(9, 6, 100, 1)
	n, err := New(Config{Layers: []int{9, 24, 6}, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := n.Train(ds, TrainOptions{MaxEpochs: 1, DesiredError: 1e-12}); err != nil {
			b.Fatal(err)
		}
	}
}
