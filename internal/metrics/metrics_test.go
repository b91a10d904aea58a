package metrics

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestWelfordBasics(t *testing.T) {
	var w Welford
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Add(x)
	}
	if w.Count() != 8 {
		t.Errorf("Count = %d", w.Count())
	}
	if !almostEqual(w.Mean(), 5, 1e-9) {
		t.Errorf("Mean = %v, want 5", w.Mean())
	}
	if !almostEqual(w.StdDev(), 2, 1e-9) {
		t.Errorf("StdDev = %v, want 2", w.StdDev())
	}
	if w.Min() != 2 || w.Max() != 9 {
		t.Errorf("Min/Max = %v/%v", w.Min(), w.Max())
	}
}

func TestWelfordEmptyAndSingle(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.StdDev() != 0 || w.Variance() != 0 {
		t.Error("empty accumulator should report zeros")
	}
	w.Add(42)
	if w.Mean() != 42 || w.StdDev() != 0 {
		t.Errorf("single obs: mean=%v std=%v", w.Mean(), w.StdDev())
	}
}

// Property: merging two accumulators equals accumulating the concatenation.
func TestWelfordMergeProperty(t *testing.T) {
	f := func(seed int64, nA, nB uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		var a, b, all Welford
		for i := 0; i < int(nA); i++ {
			x := rng.NormFloat64()*10 + 50
			a.Add(x)
			all.Add(x)
		}
		for i := 0; i < int(nB); i++ {
			x := rng.NormFloat64()*3 - 20
			b.Add(x)
			all.Add(x)
		}
		a.Merge(&b)
		return a.Count() == all.Count() &&
			almostEqual(a.Mean(), all.Mean(), 1e-6) &&
			almostEqual(a.Variance(), all.Variance(), 1e-5) &&
			almostEqual(a.Min(), all.Min(), 0) &&
			almostEqual(a.Max(), all.Max(), 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestWelfordMergeIntoEmpty(t *testing.T) {
	var a, b Welford
	b.Add(1)
	b.Add(3)
	a.Merge(&b)
	if a.Count() != 2 || a.Mean() != 2 {
		t.Errorf("merge into empty: count=%d mean=%v", a.Count(), a.Mean())
	}
	var c Welford
	a.Merge(&c) // merging empty is a no-op
	if a.Count() != 2 {
		t.Errorf("merge of empty changed count to %d", a.Count())
	}
}

func TestReLate2PaperExamples(t *testing.T) {
	// From the paper: 1000us latency, 0% loss -> 1000; 9% -> 10000; 19% -> 20000.
	tests := []struct {
		latUs, lossPct, want float64
	}{
		{1000, 0, 1000},
		{1000, 9, 10000},
		{1000, 19, 20000},
		{500, 5, 3000},
	}
	for _, tt := range tests {
		if got := ReLate2(tt.latUs, tt.lossPct); !almostEqual(got, tt.want, 1e-9) {
			t.Errorf("ReLate2(%v, %v) = %v, want %v", tt.latUs, tt.lossPct, got, tt.want)
		}
	}
}

func TestReLate2Jit(t *testing.T) {
	if got := ReLate2Jit(1000, 9, 2); !almostEqual(got, 20000, 1e-9) {
		t.Errorf("ReLate2Jit = %v, want 20000", got)
	}
}

// Properties: ReLate2 >= latency for any non-negative loss, and is monotone
// in both latency and loss.
func TestReLate2Properties(t *testing.T) {
	f := func(latRaw, lossRaw uint16) bool {
		lat := float64(latRaw)
		loss := float64(lossRaw%101) / 1.0
		v := ReLate2(lat, loss)
		if v < lat {
			return false
		}
		if ReLate2(lat+1, loss) < v {
			return false
		}
		if ReLate2(lat, loss+1) < v {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestCollectorSummary(t *testing.T) {
	base := time.Unix(1000, 0)
	var c Collector
	// 95 direct deliveries at 1ms, 4 recovered at 10ms, 1 lost (of 100).
	for i := 0; i < 95; i++ {
		c.OnDeliver(base, base.Add(time.Millisecond), false)
	}
	for i := 0; i < 4; i++ {
		c.OnDeliver(base, base.Add(10*time.Millisecond), true)
	}
	s := c.Summary(100)
	if s.Delivered != 99 || s.Recovered != 4 {
		t.Errorf("delivered=%d recovered=%d", s.Delivered, s.Recovered)
	}
	if !almostEqual(s.LossPct, 1.0, 1e-9) {
		t.Errorf("LossPct = %v, want 1", s.LossPct)
	}
	if !almostEqual(s.Reliability(), 99, 1e-9) {
		t.Errorf("Reliability = %v, want 99", s.Reliability())
	}
	wantAvg := (95*1000.0 + 4*10000.0) / 99
	if !almostEqual(s.AvgLatencyUs, wantAvg, 1e-6) {
		t.Errorf("AvgLatencyUs = %v, want %v", s.AvgLatencyUs, wantAvg)
	}
	if !almostEqual(s.ReLate2, wantAvg*2, 1e-6) {
		t.Errorf("ReLate2 = %v, want %v", s.ReLate2, wantAvg*2)
	}
	if s.ReLate2Jit <= s.ReLate2 {
		t.Errorf("ReLate2Jit = %v should exceed ReLate2 = %v for jitter > 1", s.ReLate2Jit, s.ReLate2)
	}
}

func TestCollectorDeliveredExceedsSent(t *testing.T) {
	// Duplicate-free overdelivery (e.g. sent counter not yet final) must not
	// produce negative loss.
	base := time.Unix(0, 0)
	var c Collector
	c.OnDeliver(base, base.Add(time.Millisecond), false)
	c.OnDeliver(base, base.Add(time.Millisecond), false)
	s := c.Summary(1)
	if s.LossPct != 0 {
		t.Errorf("LossPct = %v, want 0 (clamped)", s.LossPct)
	}
}

func TestCollectorZeroSent(t *testing.T) {
	var c Collector
	s := c.Summary(0)
	if s.LossPct != 0 || s.Reliability() != 0 {
		t.Errorf("zero-sent summary: %+v", s)
	}
}

func TestCollectorMerge(t *testing.T) {
	base := time.Unix(0, 0)
	var a, b Collector
	a.OnDeliver(base, base.Add(time.Millisecond), false)
	b.OnDeliver(base, base.Add(3*time.Millisecond), true)
	a.Merge(&b)
	s := a.Summary(2)
	if s.Delivered != 2 || s.Recovered != 1 {
		t.Errorf("merged summary: %+v", s)
	}
	if !almostEqual(s.AvgLatencyUs, 2000, 1e-9) {
		t.Errorf("AvgLatencyUs = %v, want 2000", s.AvgLatencyUs)
	}
}

func TestBandwidth(t *testing.T) {
	var b Bandwidth
	t0 := time.Unix(100, 0)
	b.Add(t0, 1000)
	b.Add(t0.Add(500*time.Millisecond), 1000) // same second
	b.Add(t0.Add(2*time.Second), 4000)        // second 102; second 101 empty
	if b.Total() != 6000 {
		t.Errorf("Total = %d", b.Total())
	}
	end := t0.Add(3 * time.Second)
	if got, want := b.MeanRate(t0, end), 2000.0; !almostEqual(got, want, 1e-9) {
		t.Errorf("MeanRate = %v, want %v", got, want)
	}
	// Buckets: 2000, 0, 4000 -> mean 2000, variance (0+4e6+4e6)/3.
	wantStd := math.Sqrt((4e6 + 0 + 4e6) / 3)
	if got := b.Burstiness(t0, end); !almostEqual(got, wantStd, 1e-6) {
		t.Errorf("Burstiness = %v, want %v", got, wantStd)
	}
	// A window reaching past the last byte counts its empty seconds.
	if got, want := b.MeanRate(t0, end.Add(time.Second)), 1500.0; !almostEqual(got, want, 1e-9) {
		t.Errorf("MeanRate over 4 s = %v, want %v", got, want)
	}
}

// TestBandwidthWindowIgnoresLinger checks that traffic after the window
// (a writer's end-of-stream linger after Close) moves Total but not the
// per-second statistics: a constant-rate stream has the same burstiness and
// mean rate with and without a linger.
func TestBandwidthWindowIgnoresLinger(t *testing.T) {
	from := time.Unix(100, 0)
	to := from.Add(10 * time.Second) // the writer's Close
	stream := func(b *Bandwidth) {
		for at := from; at.Before(to); at = at.Add(40 * time.Millisecond) {
			b.Add(at, 1000)
		}
	}
	var plain, lingered Bandwidth
	stream(&plain)
	stream(&lingered)
	for at := to; at.Before(to.Add(time.Second)); at = at.Add(100 * time.Millisecond) {
		lingered.Add(at, 40) // end-of-stream heartbeats
	}
	if lingered.Total() != plain.Total()+400 {
		t.Errorf("Total = %d, want every byte: %d", lingered.Total(), plain.Total()+400)
	}
	if got, want := lingered.Burstiness(from, to), plain.Burstiness(from, to); got != want || want != 0 {
		t.Errorf("Burstiness with linger = %v, without = %v; want both 0", got, want)
	}
	if got, want := lingered.MeanRate(from, to), plain.MeanRate(from, to); got != want || want != 25000 {
		t.Errorf("MeanRate with linger = %v, without = %v; want both 25000", got, want)
	}
}

func TestBandwidthEmptyAndNegative(t *testing.T) {
	var b Bandwidth
	t0 := time.Unix(0, 0)
	if b.MeanRate(t0, t0) != 0 || b.Burstiness(t0, t0.Add(time.Second)) != 0 || b.Total() != 0 {
		t.Error("empty bandwidth should report zeros")
	}
	b.Add(time.Unix(0, 0), -5)
	if b.Total() != 0 {
		t.Error("negative byte counts must be ignored")
	}
}

func TestBandwidthMerge(t *testing.T) {
	var a, b Bandwidth
	a.Add(time.Unix(10, 0), 100)
	b.Add(time.Unix(10, 0), 50)
	b.Add(time.Unix(11, 0), 200)
	a.Merge(&b)
	if a.Total() != 350 {
		t.Errorf("Total = %d, want 350", a.Total())
	}
	if got := a.MeanRate(time.Unix(10, 0), time.Unix(12, 0)); !almostEqual(got, 175, 1e-9) {
		t.Errorf("MeanRate = %v, want 175", got)
	}
}

func TestSummaryString(t *testing.T) {
	var c Collector
	c.OnDeliver(time.Unix(0, 0), time.Unix(0, int64(time.Millisecond)), false)
	got := c.Summary(1).String()
	if got == "" {
		t.Error("empty String()")
	}
}

func TestQuantileSmallN(t *testing.T) {
	xs := []float64{10, 20, 30, 40}
	for _, tc := range []struct {
		p    float64
		want float64
	}{
		{0, 10}, {0.25, 10}, {0.26, 20}, {0.5, 20}, {0.75, 30}, {0.95, 40}, {1, 40}, {2, 40},
	} {
		if got := Quantile(xs, tc.p); got != tc.want {
			t.Errorf("Quantile(%v, %v) = %v, want %v", xs, tc.p, got, tc.want)
		}
	}
	if got := Quantile([]float64{7}, 0.99); got != 7 {
		t.Errorf("Quantile([7], 0.99) = %v, want 7", got)
	}
}

func TestQuantileEmpty(t *testing.T) {
	for _, p := range []float64{0, 0.5, 0.99, 1} {
		if got := Quantile(nil, p); got != 0 {
			t.Errorf("Quantile(nil, %v) = %v, want 0", p, got)
		}
	}
}

// quantileMatchesReference draws 1 to 2000 normal samples from seed, and
// checks Quantile at p50, p95 and p99 against a scan of the sorted samples
// for the first value with at least a p share at or below it, and that the
// three are ordered.
func quantileMatchesReference(seed int64, nRaw uint16) bool {
	rng := rand.New(rand.NewSource(seed))
	xs := make([]float64, 1+int(nRaw%2000))
	for i := range xs {
		xs[i] = rng.NormFloat64()*100 + 500
	}
	sort.Float64s(xs)
	var got [3]float64
	for k, p := range []float64{0.50, 0.95, 0.99} {
		want := xs[len(xs)-1]
		for i, x := range xs {
			if float64(i+1) >= p*float64(len(xs)) {
				want = x
				break
			}
		}
		if got[k] = Quantile(xs, p); got[k] != want {
			return false
		}
	}
	return got[0] <= got[1] && got[1] <= got[2]
}

func TestQuantileProperty(t *testing.T) {
	// Nine samples on which an online P-square estimator put its p50
	// (519.92) above its p95 (512.50).
	if !quantileMatchesReference(-2535869926702730272, 8) {
		t.Error("the nine-sample stream disagrees with the reference")
	}
	if err := quick.Check(quantileMatchesReference, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
