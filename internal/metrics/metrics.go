// Package metrics implements the composite QoS metrics the paper uses to
// give a single objective score to a (middleware, transport, environment)
// combination:
//
//   - ReLate2: average delivery latency multiplied by (percent loss + 1),
//     so 9% loss at equal latency scores 10x worse than lossless.
//   - ReLate2Jit: ReLate2 further multiplied by jitter (the standard
//     deviation of delivery latency).
//
// It also provides the constituent collectors: per-receiver latency and
// jitter accumulators (Welford online variance), reliability accounting,
// per-second bandwidth tracking from which burstiness (the standard
// deviation of bytes-per-second) is derived, and exact latency quantiles.
package metrics

import (
	"fmt"
	"math"
	"time"
)

// Welford accumulates mean and variance online in a numerically stable way.
// The zero value is ready to use.
type Welford struct {
	n    uint64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add folds one observation into the accumulator.
func (w *Welford) Add(x float64) {
	w.n++
	if w.n == 1 {
		w.min, w.max = x, x
	} else {
		if x < w.min {
			w.min = x
		}
		if x > w.max {
			w.max = x
		}
	}
	delta := x - w.mean
	w.mean += delta / float64(w.n)
	w.m2 += delta * (x - w.mean)
}

// Count returns the number of observations.
func (w *Welford) Count() uint64 { return w.n }

// Mean returns the running mean, or 0 with no observations.
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the population variance, or 0 with fewer than two
// observations.
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n)
}

// StdDev returns the population standard deviation.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }

// Min returns the smallest observation, or 0 with none.
func (w *Welford) Min() float64 { return w.min }

// Max returns the largest observation, or 0 with none.
func (w *Welford) Max() float64 { return w.max }

// Merge folds other into w, as if every observation of other had been added
// to w (Chan et al. parallel variance combination).
func (w *Welford) Merge(other *Welford) {
	if other.n == 0 {
		return
	}
	if w.n == 0 {
		*w = *other
		return
	}
	n := w.n + other.n
	delta := other.mean - w.mean
	w.m2 += other.m2 + delta*delta*float64(w.n)*float64(other.n)/float64(n)
	w.mean += delta * float64(other.n) / float64(n)
	if other.min < w.min {
		w.min = other.min
	}
	if other.max > w.max {
		w.max = other.max
	}
	w.n = n
}

// ReLate2 combines average latency (in microseconds) with percent loss
// (in percentage points, e.g. 5.0 for 5%): avgLatencyUs * (lossPct + 1).
// A 0% loss stream scores exactly its latency; 9% loss scores 10x.
func ReLate2(avgLatencyUs, lossPct float64) float64 {
	return avgLatencyUs * (lossPct + 1)
}

// ReLate2Jit combines ReLate2 with jitter (standard deviation of latency,
// microseconds): ReLate2 * jitter.
func ReLate2Jit(avgLatencyUs, lossPct, jitterUs float64) float64 {
	return ReLate2(avgLatencyUs, lossPct) * jitterUs
}

// Collector accumulates delivery observations for one receiver (or, after
// Merge, a set of receivers). The zero value is ready to use.
type Collector struct {
	latencyUs Welford
	recovered uint64
	delivered uint64
}

// OnDeliver records a sample delivered to the application. recovered marks
// samples reconstructed by the transport (repair or retransmission) rather
// than received directly.
func (c *Collector) OnDeliver(sentAt, deliveredAt time.Time, recovered bool) {
	c.delivered++
	if recovered {
		c.recovered++
	}
	c.latencyUs.Add(float64(deliveredAt.Sub(sentAt)) / float64(time.Microsecond))
}

// Merge folds other's observations into c.
func (c *Collector) Merge(other *Collector) {
	c.latencyUs.Merge(&other.latencyUs)
	c.recovered += other.recovered
	c.delivered += other.delivered
}

// Delivered returns the number of samples delivered.
func (c *Collector) Delivered() uint64 { return c.delivered }

// Summary computes the composite metrics given the number of samples the
// writer actually sent to this receiver (i.e. per-receiver expected count).
func (c *Collector) Summary(sent uint64) Summary {
	s := Summary{
		Sent:         sent,
		Delivered:    c.delivered,
		Recovered:    c.recovered,
		AvgLatencyUs: c.latencyUs.Mean(),
		JitterUs:     c.latencyUs.StdDev(),
		MinLatencyUs: c.latencyUs.Min(),
		MaxLatencyUs: c.latencyUs.Max(),
	}
	if sent > 0 {
		lost := float64(0)
		if sent > c.delivered {
			lost = float64(sent - c.delivered)
		}
		s.LossPct = 100 * lost / float64(sent)
	}
	s.ReLate2 = ReLate2(s.AvgLatencyUs, s.LossPct)
	s.ReLate2Jit = ReLate2Jit(s.AvgLatencyUs, s.LossPct, s.JitterUs)
	return s
}

// Summary is the computed QoS scorecard for one experiment run.
type Summary struct {
	Sent         uint64
	Delivered    uint64
	Recovered    uint64
	LossPct      float64 // unrecovered loss, percentage points
	AvgLatencyUs float64
	JitterUs     float64
	MinLatencyUs float64
	MaxLatencyUs float64
	ReLate2      float64
	ReLate2Jit   float64
	// Exact nearest-rank latency tails (microseconds) over every delivery,
	// filled by the producer (see Quantile); Collector.Summary leaves them 0.
	P50LatencyUs float64
	P95LatencyUs float64
	P99LatencyUs float64
	// Network usage, filled by the producer from its own byte counts
	// (Collector.Summary leaves them zero).
	Bytes         uint64  // network bytes observed
	AvgBps        float64 // mean bandwidth usage over the publish window, bytes/sec
	BurstinessBps float64 // stddev of per-second bandwidth usage over the publish window
}

// Reliability returns delivered/sent as a percentage (100 = perfect).
func (s Summary) Reliability() float64 {
	if s.Sent == 0 {
		return 0
	}
	return 100 * float64(s.Delivered) / float64(s.Sent)
}

// String implements fmt.Stringer with the fields the paper's figures report.
func (s Summary) String() string {
	return fmt.Sprintf("rel=%.2f%% lat=%.0fus jit=%.0fus relate2=%.0f relate2jit=%.3g",
		s.Reliability(), s.AvgLatencyUs, s.JitterUs, s.ReLate2, s.ReLate2Jit)
}

// Bandwidth tracks bytes per one-second bucket so that total usage, mean
// rate, and burstiness (stddev of per-second usage) can be reported. Total
// counts every byte; the rates are taken over a window the caller names
// (an experiment's publish window), so traffic after it, such as the
// end-of-stream announcements that follow a writer's Close, does not count
// as a near-empty second. The zero value is ready to use.
//
// Buckets are a dense preallocated slice anchored at the first observed
// second rather than a map: experiment traffic is contiguous in time, and
// Add sits on the per-packet hot path of every receiver, so bucket updates
// must be an index increment rather than a map probe.
type Bandwidth struct {
	base    int64    // unix second of buckets[0]; meaningful when len(buckets) > 0
	buckets []uint64 // bytes per second, dense from base
	total   uint64
}

// bandwidthHint is the initial bucket capacity: most experiment runs span
// well under a minute of virtual time.
const bandwidthHint = 64

// Add records n bytes observed at time t.
func (b *Bandwidth) Add(t time.Time, n int) {
	if n <= 0 {
		return
	}
	sec := t.Unix()
	if len(b.buckets) == 0 {
		b.base = sec
		if b.buckets == nil {
			b.buckets = make([]uint64, 0, bandwidthHint)
		}
	}
	idx := sec - b.base
	if idx < 0 {
		// Out-of-order observation before the anchor: re-anchor and shift.
		grown := make([]uint64, int64(len(b.buckets))-idx)
		copy(grown[-idx:], b.buckets)
		b.buckets = grown
		b.base = sec
		idx = 0
	}
	for int64(len(b.buckets)) <= idx {
		b.buckets = append(b.buckets, 0)
	}
	b.buckets[idx] += uint64(n)
	b.total += uint64(n)
}

// Merge folds other into b.
func (b *Bandwidth) Merge(other *Bandwidth) {
	if len(other.buckets) > 0 {
		if len(b.buckets) == 0 {
			b.base = other.base
			b.buckets = append(b.buckets[:0], other.buckets...)
		} else {
			lo := b.base
			if other.base < lo {
				lo = other.base
			}
			hi := b.end()
			if oe := other.end(); oe > hi {
				hi = oe
			}
			merged := make([]uint64, hi-lo+1)
			copy(merged[b.base-lo:], b.buckets)
			for i, v := range other.buckets {
				merged[other.base-lo+int64(i)] += v
			}
			b.base = lo
			b.buckets = merged
		}
	}
	b.total += other.total
}

// end returns the unix second of the last bucket; only valid when buckets
// is non-empty.
func (b *Bandwidth) end() int64 { return b.base + int64(len(b.buckets)) - 1 }

// Total returns the total bytes recorded.
func (b *Bandwidth) Total() uint64 { return b.total }

// MeanRate returns the mean bytes/second over the window [from, to).
func (b *Bandwidth) MeanRate(from, to time.Time) float64 {
	w := b.perSecond(from, to)
	return w.Mean()
}

// Burstiness returns the standard deviation of bytes-per-second over the
// window [from, to).
func (b *Bandwidth) Burstiness(from, to time.Time) float64 {
	w := b.perSecond(from, to)
	return w.StdDev()
}

// perSecond accumulates the bytes of every second the window [from, to)
// touches, counting a second with no bytes as zero.
func (b *Bandwidth) perSecond(from, to time.Time) Welford {
	var w Welford
	for sec := from.Unix(); sec <= to.Add(-time.Nanosecond).Unix(); sec++ {
		var v uint64
		if i := sec - b.base; i >= 0 && i < int64(len(b.buckets)) {
			v = b.buckets[i]
		}
		w.Add(float64(v))
	}
	return w
}

// Quantile returns the nearest-rank p-quantile of sorted, which must be in
// ascending order: the smallest value with at least a p share of the
// values at or below it, so the answer is always one of the values. A p at
// or below 0 gives the smallest value, one at or above 1 the largest, and
// an empty slice 0.
func Quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p * float64(len(sorted))))
	return sorted[min(max(rank, 1), len(sorted))-1]
}
