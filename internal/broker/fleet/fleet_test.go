package fleet

import (
	"testing"
)

// TestFleetAccounting runs a small fleet over real sockets and checks
// the invariant the harness is built on: every expected delivery is
// accounted for (received or dropped) and latency stamps are sane.
func TestFleetAccounting(t *testing.T) {
	res, err := Run(Config{
		Subscribers:  500,
		Conns:        4,
		PayloadBytes: 64,
		Messages:     100,
		Seed:         7,
	})
	if err != nil {
		t.Fatal(err)
	}
	expected := uint64(100 * 500)
	if res.Delivered+res.Dropped < expected {
		t.Fatalf("delivered %d + dropped %d < expected %d", res.Delivered, res.Dropped, expected)
	}
	if res.Delivered == 0 {
		t.Fatal("no deliveries at all")
	}
	if res.LatencyP50Ms <= 0 {
		t.Errorf("p50 latency %v ms, want > 0", res.LatencyP50Ms)
	}
	if res.LatencyP50Ms > res.LatencyP999Ms {
		t.Errorf("p50 %.3fms > p99.9 %.3fms", res.LatencyP50Ms, res.LatencyP999Ms)
	}
	if res.LatencyMaxMs+0.001 < res.LatencyP999Ms {
		t.Errorf("max %.3fms < p99.9 %.3fms", res.LatencyMaxMs, res.LatencyP999Ms)
	}
	if res.DeliveriesPerSec <= 0 {
		t.Error("no throughput measured")
	}
}

// TestFleetPaced checks the rate limiter: at 50 Hz, 20 messages cannot
// complete faster than ~380ms of pacing.
func TestFleetPaced(t *testing.T) {
	res, err := Run(Config{
		Subscribers:  20,
		Conns:        2,
		PayloadBytes: 16,
		Messages:     20,
		RateHz:       50,
		Seed:         7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Seconds < 0.35 {
		t.Errorf("paced run took %.3fs, want >= 0.35s (19 intervals at 20ms)", res.Seconds)
	}
	if res.PublishPerSec > 60 {
		t.Errorf("publish rate %.1f/s, want <= ~50", res.PublishPerSec)
	}
}

// TestFleetOpenLoopFlag pins the coordinated-omission contract: paced
// runs are open-loop (intended-time stamps, schedule accounting live),
// unpaced runs are flagged closed-loop.
func TestFleetOpenLoopFlag(t *testing.T) {
	paced, err := Run(Config{
		Subscribers: 50, Conns: 2, PayloadBytes: 16, Messages: 30, RateHz: 200, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !paced.OpenLoop {
		t.Error("paced run not flagged open-loop")
	}
	if paced.MaxSendLagMs < 0 {
		t.Errorf("negative send lag %.3f", paced.MaxSendLagMs)
	}

	unpaced, err := Run(Config{
		Subscribers: 50, Conns: 2, PayloadBytes: 16, Messages: 30, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if unpaced.OpenLoop {
		t.Error("unpaced run flagged open-loop; it is closed-loop by construction")
	}
	if unpaced.BehindSchedule != 0 {
		t.Errorf("unpaced run has no schedule, BehindSchedule = %d", unpaced.BehindSchedule)
	}
}

// TestRateSweepWalksLadder smoke-tests the sweep driver: two easy rates
// on a tiny fleet produce two points with sane fields and no knee.
func TestRateSweepWalksLadder(t *testing.T) {
	sw, err := RateSweep(SweepConfig{
		Base:      Config{Subscribers: 30, Conns: 2, PayloadBytes: 16, Seed: 7},
		Rates:     []int{200, 400},
		Seconds:   0.15,
		KneeP99Ms: 10_000, // unreachable on an idle tiny fleet
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(sw.Points) != 2 {
		t.Fatalf("got %d points, want 2", len(sw.Points))
	}
	for i, p := range sw.Points {
		if !p.OpenLoop {
			t.Errorf("point %d not open-loop", i)
		}
		if p.LatencyP99Ms <= 0 {
			t.Errorf("point %d has no p99", i)
		}
	}
	if sw.Points[0].RateHz != 200 || sw.Points[1].RateHz != 400 {
		t.Errorf("rates = %d,%d want 200,400", sw.Points[0].RateHz, sw.Points[1].RateHz)
	}
	if sw.KneeRateHz != 0 {
		t.Errorf("knee at %d Hz on an idle fleet with a 10s bound", sw.KneeRateHz)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	for i := uint64(1); i <= 1000; i++ {
		h.Record(i * 1000) // 1us .. 1ms
	}
	if h.Count() != 1000 {
		t.Fatalf("count = %d, want 1000", h.Count())
	}
	check := func(q, want float64) {
		t.Helper()
		got := float64(h.Quantile(q))
		// Log-linear buckets with 16 sub-buckets: <= ~7% relative error.
		if got < want*0.9 || got > want*1.1 {
			t.Errorf("q%.3f = %.0f, want within 10%% of %.0f", q, got, want)
		}
	}
	check(0.50, 500_000)
	check(0.99, 990_000)
	check(1.0, 1_000_000)
	if h.Max() != 1_000_000 {
		t.Errorf("max = %d, want 1000000", h.Max())
	}

	var other Histogram
	other.Record(2_000_000)
	h.Merge(&other)
	if h.Count() != 1001 || h.Max() != 2_000_000 {
		t.Errorf("after merge: count=%d max=%d", h.Count(), h.Max())
	}
}

func TestHistogramBucketsMonotone(t *testing.T) {
	prev := -1
	for _, v := range []uint64{0, 1, 15, 16, 17, 31, 32, 100, 1 << 20, 1<<40 + 12345, 1<<63 + 9} {
		b := bucketOf(v)
		if b < prev {
			t.Fatalf("bucketOf(%d) = %d < previous bucket %d", v, b, prev)
		}
		if b < 0 || b >= histBuckets {
			t.Fatalf("bucketOf(%d) = %d out of range", v, b)
		}
		// The representative value must land back in the same bucket
		// neighborhood (within one bucket of rounding).
		rb := bucketOf(bucketValue(b))
		if rb < b-1 || rb > b+1 {
			t.Errorf("bucketValue(%d)=%d maps to bucket %d", b, bucketValue(b), rb)
		}
		prev = b
	}
}
