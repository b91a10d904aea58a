package hist

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// exact returns the same order statistic Quantile targets.
func exact(sorted []int64, q float64) float64 {
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return float64(sorted[rank-1])
}

func TestQuantileAgainstExactSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	shapes := map[string]func() int64{
		"lognormal": func() int64 { return int64(math.Exp(rng.NormFloat64()*2 + 13)) },
		"uniform":   func() int64 { return rng.Int63n(50_000_000) },
		"small":     func() int64 { return rng.Int63n(300) },
		"bimodal": func() int64 {
			if rng.Intn(100) == 0 {
				return 40_000_000 + rng.Int63n(1_000_000)
			}
			return 200_000 + rng.Int63n(20_000)
		},
	}
	for name, draw := range shapes {
		var h, a, b H
		vals := make([]int64, 200_000)
		for i := range vals {
			vals[i] = draw()
			h.Record(vals[i])
			if i%2 == 0 {
				a.Record(vals[i])
			} else {
				b.Record(vals[i])
			}
		}
		a.Merge(&b)
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		for _, q := range []float64{0.001, 0.5, 0.95, 0.99, 0.999, 1} {
			want := exact(vals, q)
			for which, got := range map[string]float64{"direct": h.Quantile(q), "merged": a.Quantile(q)} {
				if err := math.Abs(got-want) / math.Max(want, 1); err > 0.01 {
					t.Errorf("%s %s q=%v: got %v want %v (rel err %.4f)", name, which, q, got, want, err)
				}
			}
		}
		if h.Count() != uint64(len(vals)) || h.Max() != uint64(vals[len(vals)-1]) {
			t.Errorf("%s: count %d max %d", name, h.Count(), h.Max())
		}
	}
}

func TestBucketsCoverEveryValueOnce(t *testing.T) {
	prev := -1
	for _, v := range []uint64{0, 1, 127, 128, 129, 255, 256, 257, 1 << 20, 1<<20 + 1<<13, 1 << 46, 1 << 60} {
		i := index(v)
		if i < prev {
			t.Fatalf("index not monotonic at %d", v)
		}
		prev = i
		if i == buckets-1 {
			continue
		}
		lo, width := bounds(i)
		if v < lo || v >= lo+width {
			t.Fatalf("value %d outside bucket %d [%d,%d)", v, i, lo, lo+width)
		}
		if width > 1 && float64(width)/float64(lo) > 1.0/subCount {
			t.Fatalf("bucket %d too wide: %d at %d", i, width, lo)
		}
	}
}

func TestEmptyAndNegative(t *testing.T) {
	var h H
	if h.Quantile(0.5) != 0 || h.Count() != 0 {
		t.Fatal("empty histogram must report 0")
	}
	h.Record(-5)
	if h.Count() != 1 || h.Quantile(1) != 0 {
		t.Fatal("negative observation must be recorded as 0")
	}
}
