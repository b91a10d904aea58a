package ann

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// rowLoop is the layer loop dense replaced: one output row at a time, bias
// first, then the inputs in ascending order, through the sigmoid formula.
func rowLoop(steepness float64, in, out, w []float64) {
	rl := len(in) + 1
	for o := range out {
		row := w[o*rl : o*rl+rl]
		sum := row[len(in)]
		for i, v := range in {
			sum += v * row[i]
		}
		out[o] = 1 / (1 + math.Exp(-2*steepness*sum))
	}
}

// TestDenseMatchesRowLoop checks the blocked kernel bit for bit against
// the plain row loop, across widths that leave every remainder of the
// four-row block, with weights and inputs drawn from ordinary, large
// (saturating), zero, infinite and NaN values.
func TestDenseMatchesRowLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	families := []struct {
		name string
		gen  func() float64
	}{
		{"random", func() float64 { return rng.NormFloat64() * []float64{0.1, 1, 100, 1000}[rng.Intn(4)] }},
		{"zero", func() float64 { return 0 }},
		{"inf", func() float64 {
			if rng.Intn(2) == 0 {
				return math.Inf(1)
			}
			return math.Inf(-1)
		}},
		{"nan", func() float64 { return math.NaN() }},
		{"mixed", func() float64 {
			switch rng.Intn(6) {
			case 0:
				return 0
			case 1:
				return math.Inf(1)
			case 2:
				return math.Inf(-1)
			case 3:
				return math.NaN()
			}
			return rng.NormFloat64() * 50
		}},
	}
	same := func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
	}
	for _, outN := range []int{1, 3, 4, 5, 7, 24} {
		for _, inN := range []int{1, 2, 9, 10, 24} {
			for _, wf := range families {
				for _, inf := range families {
					for rep := 0; rep < 4; rep++ {
						n := &Network{steepness: []float64{0.5, 0.7}[rep%2]}
						w := make([]float64, (inN+1)*outN)
						for i := range w {
							w[i] = wf.gen()
						}
						in := make([]float64, inN)
						for i := range in {
							in[i] = inf.gen()
						}
						got, want := make([]float64, outN), make([]float64, outN)
						n.dense(in, got, w)
						rowLoop(n.steepness, in, want, w)
						for o := range want {
							if !same(got[o], want[o]) {
								t.Fatalf("out %d of %dx%d (weights %s, inputs %s): dense %v, row loop %v",
									o, inN, outN, wf.name, inf.name, got[o], want[o])
							}
						}
					}
				}
			}
		}
	}
}

const adamantModel = "../../data/adamant.ann"

// TestLoadAdamantBytes pins what loading the shipped model allocates: the
// scanner grows from 4 KiB to its longest line, and no seeded weights are
// drawn only to be overwritten.
func TestLoadAdamantBytes(t *testing.T) {
	if _, err := LoadFile(adamantModel); err != nil {
		t.Fatal(err)
	}
	const runs = 20
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		if _, err := LoadFile(adamantModel); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&m1)
	per := (m1.TotalAlloc - m0.TotalAlloc) / runs
	t.Logf("LoadFile(%s): %d B", adamantModel, per)
	if per >= 64<<10 {
		t.Errorf("LoadFile(%s) allocates %d B, want < 64 KiB", adamantModel, per)
	}
}

func BenchmarkLoadAdamant(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := LoadFile(adamantModel); err != nil {
			b.Fatal(err)
		}
	}
}
