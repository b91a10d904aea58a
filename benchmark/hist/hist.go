// Package hist is the benchmark's own latency histogram: log-linear
// buckets (128 per power of two, so a reported quantile is within 0.8 % of
// the recorded value), fixed size, mergeable by addition. It is kept
// outside internal/ so that a change to the product's histograms cannot
// move the yardstick.
package hist

import "math/bits"

const (
	subBits  = 7
	subCount = 1 << subBits // linear buckets per power of two
	// maxExp bounds recorded values at 2^(subBits+maxExp) ns, about 39
	// hours; larger values land in the last bucket.
	maxExp  = 40
	buckets = (maxExp + 1) * subCount
)

// H counts non-negative integer observations (nanoseconds throughout the
// benchmark). The zero value is ready to use. Not safe for concurrent use:
// give each goroutine its own and Merge afterwards.
type H struct {
	counts [buckets]uint64
	n      uint64
	max    uint64
}

func index(v uint64) int {
	if v < subCount {
		return int(v)
	}
	exp := bits.Len64(v) - subBits - 1 // v>>exp is in [subCount, 2*subCount)
	if exp >= maxExp {
		return buckets - 1
	}
	return (exp+1)*subCount + int(v>>uint(exp)) - subCount
}

// bounds returns the inclusive lower bound and the width of bucket i.
func bounds(i int) (lo, width uint64) {
	if i < subCount {
		return uint64(i), 1
	}
	exp := uint(i/subCount - 1)
	return (uint64(i%subCount) + subCount) << exp, 1 << exp
}

// Record adds one observation; negative durations are recorded as zero.
func (h *H) Record(v int64) {
	if v < 0 {
		v = 0
	}
	u := uint64(v)
	h.counts[index(u)]++
	h.n++
	if u > h.max {
		h.max = u
	}
}

// Merge adds every observation of o to h.
func (h *H) Merge(o *H) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	if o.max > h.max {
		h.max = o.max
	}
}

// Count returns the number of observations.
func (h *H) Count() uint64 { return h.n }

// Max returns the largest observation, exactly.
func (h *H) Max() uint64 { return h.max }

// Quantile returns the q-quantile (0 < q <= 1): the position of the
// ceil(q*n)-th smallest observation, interpolated inside its bucket as if
// the bucket's observations were spread evenly, and capped at Max. It
// returns 0 with no observations.
func (h *H) Quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(q * float64(h.n))
	if float64(rank) < q*float64(h.n) {
		rank++
	}
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for i, c := range h.counts {
		if seen+c >= rank {
			lo, width := bounds(i)
			v := float64(lo) + float64(width-1)*(float64(rank-seen)-0.5)/float64(c)
			if v > float64(h.max) {
				return float64(h.max)
			}
			return v
		}
		seen += c
	}
	return float64(h.max)
}
