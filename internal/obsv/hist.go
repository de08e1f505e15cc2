package obsv

import (
	"math/bits"
	"sync/atomic"

	"clampi/internal/simtime"
)

// NumHistBuckets is the number of log2 histogram buckets: bucket 0 holds
// observations of 0–1 virtual ns, bucket i holds [2^(i-1), 2^i) ns, and
// the last bucket absorbs everything ≥ 2^62 ns (never reached by real
// virtual timelines; it keeps indexing branch-free).
const NumHistBuckets = 64

// Histogram is a log2-bucketed distribution of virtual durations. All
// operations are atomic: many ranks may observe into one histogram
// concurrently.
type Histogram struct {
	count   atomic.Int64                 // clampi:atomic
	sum     atomic.Int64                 // clampi:atomic
	buckets [NumHistBuckets]atomic.Int64 // clampi:atomic
}

// bucketOf maps a duration to its bucket index: 0 for d ≤ 1ns, else
// ceil(log2(d)) clamped to the last bucket.
func bucketOf(d simtime.Duration) int {
	if d <= 1 {
		return 0
	}
	// bits.Len64(x-1) is ceil(log2(x)) for x ≥ 2.
	b := bits.Len64(uint64(d) - 1)
	if b >= NumHistBuckets {
		b = NumHistBuckets - 1
	}
	return b
}

// BucketUpperBound returns the inclusive upper bound of bucket i in
// virtual nanoseconds (2^i; the last bucket is unbounded and reports its
// nominal 2^63-1 bound).
func BucketUpperBound(i int) simtime.Duration {
	if i >= 63 {
		return simtime.Duration(1<<63 - 1)
	}
	return simtime.Duration(1) << i
}

// Observe records one duration. Negative durations are clamped to zero.
func (h *Histogram) Observe(d simtime.Duration) {
	if d < 0 {
		d = 0
	}
	h.count.Add(1)
	h.sum.Add(int64(d))
	h.buckets[bucketOf(d)].Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed durations.
func (h *Histogram) Sum() simtime.Duration { return simtime.Duration(h.sum.Load()) }

// Mean returns the mean observed duration (0 when empty).
func (h *Histogram) Mean() simtime.Duration {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return h.Sum() / simtime.Duration(n)
}

// Buckets returns a snapshot of the per-bucket counts.
func (h *Histogram) Buckets() [NumHistBuckets]int64 {
	var out [NumHistBuckets]int64
	for i := range out {
		out[i] = h.buckets[i].Load()
	}
	return out
}

// Quantile returns an upper bound for the q-quantile (q in [0,1]) of the
// observed distribution: the upper bound of the bucket containing the
// q·count-th observation. Empty histograms return 0; q ≤ 0 returns the
// first non-empty bucket's bound, q ≥ 1 the last non-empty bucket's.
func (h *Histogram) Quantile(q float64) simtime.Duration {
	n := h.Count()
	if n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// Rank of the target observation, 1-based; q=0 selects the first.
	rank := int64(q*float64(n-1)) + 1
	var seen int64
	last := 0
	for i := 0; i < NumHistBuckets; i++ {
		c := h.buckets[i].Load()
		if c == 0 {
			continue
		}
		last = i
		seen += c
		if seen >= rank {
			return BucketUpperBound(i)
		}
	}
	return BucketUpperBound(last)
}

// merge adds o's observations into h.
func (h *Histogram) merge(o *Histogram) {
	h.count.Add(o.count.Load())
	h.sum.Add(o.sum.Load())
	for i := range h.buckets {
		if c := o.buckets[i].Load(); c != 0 {
			h.buckets[i].Add(c)
		}
	}
}
