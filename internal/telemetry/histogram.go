package telemetry

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// NumBuckets is the fixed bucket count of every Histogram. Buckets are
// log-spaced at powers of two: bucket i counts observations v with
// 2^(i-1) <= v < 2^i (bucket 0 takes v <= 0 and v == 0..1), and the
// last bucket absorbs everything at or above 2^(NumBuckets-2). With 42
// buckets the span covers 1 ns up to ~18 minutes at 2x resolution —
// coarse, but every record is a single shift-free index computation and
// the array never grows, which is what lets Observe stay one atomic add
// on a hot path.
const NumBuckets = 42

// Histogram is a lock-free fixed-bucket histogram. Concurrent Observe
// calls never block each other or a reader taking a Snapshot; snapshots
// are only torn at the granularity of individual adds, which is
// harmless for monitoring. The zero unit is "whatever you pass in" —
// time histograms record nanoseconds and set scale 1e-9 at exposition
// so Prometheus sees seconds; byte histograms set scale 1.
type Histogram struct {
	buckets [NumBuckets]atomic.Int64
	sum     atomic.Int64
	count   atomic.Int64
}

// bucketIndex maps a value to its bucket: bits.Len64 is a single
// hardware instruction (LZCNT) on the platforms we care about.
func bucketIndex(v int64) int {
	if v <= 0 {
		return 0
	}
	i := bits.Len64(uint64(v))
	if i >= NumBuckets {
		return NumBuckets - 1
	}
	return i
}

// BucketBound returns the exclusive upper bound of bucket i (2^i), or
// math.MaxInt64 for the overflow bucket.
func BucketBound(i int) int64 {
	if i >= NumBuckets-1 {
		return math.MaxInt64
	}
	return int64(1) << uint(i)
}

// Record adds one observation. Three atomic adds, no branches beyond
// the bucket clamp, nil-safe so call sites can leave instrumentation
// unwired (a nil *Histogram records nothing).
func (h *Histogram) Record(v int64) {
	if h == nil {
		return
	}
	h.buckets[bucketIndex(v)].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// Observe records a duration in nanoseconds.
func (h *Histogram) Observe(d time.Duration) {
	h.Record(int64(d))
}

// Count returns the number of observations so far.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Snapshot materializes the current counts. The result is a plain
// value: mergeable, serializable, and safe to hold while the live
// histogram keeps moving.
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	if h == nil {
		return s
	}
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	s.Sum = h.sum.Load()
	s.Count = h.count.Load()
	return s
}

// HistSnapshot is a point-in-time copy of a Histogram.
type HistSnapshot struct {
	Buckets [NumBuckets]int64
	Sum     int64
	Count   int64
}

// Mean returns the average observed value, 0 when empty.
func (s HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Quantile estimates the q-quantile (0 <= q <= 1) by linear
// interpolation inside the containing bucket. With power-of-two buckets
// the estimate is within 2x of the true value — the right trade for a
// histogram whose record path is three atomic adds.
func (s HistSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	var cum float64
	for i, c := range s.Buckets {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if next >= rank {
			lo := float64(0)
			if i > 0 {
				hi := BucketBound(i - 1) // bucket i spans [2^(i-1), 2^i)
				lo = float64(hi)
			}
			hi := float64(BucketBound(i))
			if i == NumBuckets-1 {
				// Overflow bucket has no finite top; report its floor.
				return lo
			}
			if next == cum {
				return lo
			}
			frac := (rank - cum) / float64(c)
			if frac < 0 {
				frac = 0
			}
			return lo + frac*(hi-lo)
		}
		cum = next
	}
	return float64(BucketBound(NumBuckets - 2))
}
