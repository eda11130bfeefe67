package hspan

import "math/bits"

// Histogram is a log-bucketed latency histogram over nanosecond
// observations, shaped for Prometheus histogram exposition: cumulative
// _bucket{le=...} counts, _sum, _count. Buckets are powers of two from
// histMinNS (1µs) — 28 finite upper bounds spanning 1µs to ~134s —
// because latencies worth alerting on range over six orders of
// magnitude and log-spaced buckets hold relative quantile error to a
// constant factor with a fixed layout.
//
// The zero Histogram is ready to use. It is not internally locked:
// the serve metrics registry guards all histograms with its own mutex,
// and single-owner callers need nothing.
type Histogram struct {
	counts [histBuckets + 1]uint64 // per-bucket (non-cumulative); last is +Inf
	sum    int64
	count  uint64
}

const (
	histMinNS   = 1000 // first upper bound: 1µs
	histBuckets = 28   // finite bounds: 1µs << 0 .. 1µs << 27 (~134s)
)

// HistBounds returns the finite bucket upper bounds in nanoseconds
// (ascending; the implicit last bucket is +Inf). The returned slice is
// fresh on every call.
func HistBounds() []int64 {
	b := make([]int64, histBuckets)
	for i := range b {
		b[i] = histMinNS << uint(i)
	}
	return b
}

// bucketIndex maps an observation to the first bucket whose upper
// bound is >= ns. Observations <= 1µs land in bucket 0; anything over
// the largest finite bound lands in the +Inf bucket.
func bucketIndex(ns int64) int {
	if ns <= histMinNS {
		return 0
	}
	// Smallest i with histMinNS<<i >= ns, i.e. ceil(log2(ns/histMinNS)).
	i := bits.Len64(uint64(ns-1) / histMinNS)
	if i > histBuckets {
		return histBuckets
	}
	return i
}

// Observe records one latency. Negative observations clamp to zero
// (clock skew between goroutines must not corrupt the distribution).
func (h *Histogram) Observe(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.counts[bucketIndex(ns)]++
	h.sum += ns
	h.count++
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count }

// Sum returns the sum of all observations in nanoseconds.
func (h *Histogram) Sum() int64 { return h.sum }

// BucketCounts returns cumulative counts aligned with HistBounds plus
// a final +Inf entry (equal to Count), i.e. Prometheus le semantics.
func (h *Histogram) BucketCounts() []uint64 {
	out := make([]uint64, histBuckets+1)
	var cum uint64
	for i, c := range h.counts {
		cum += c
		out[i] = cum
	}
	return out
}

// Quantile estimates the q-quantile (0..1) in nanoseconds by reading
// the cumulative distribution and reporting the upper bound of the
// bucket containing it — the conservative estimate Prometheus'
// histogram_quantile would interpolate within. Returns 0 when empty;
// observations in the +Inf bucket report the largest finite bound.
func (h *Histogram) Quantile(q float64) int64 {
	if h.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := uint64(q * float64(h.count))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			if i >= histBuckets {
				return histMinNS << uint(histBuckets-1)
			}
			return histMinNS << uint(i)
		}
	}
	return histMinNS << uint(histBuckets-1)
}
