package obs

import (
	"math"
	"sync/atomic"
)

// DurationBuckets is the default latency bucket ladder: roughly
// exponential from 1µs to 10s, in seconds. It brackets everything from
// a single SAT decode (~tens of µs) to a full shard epoch (~seconds).
var DurationBuckets = []float64{
	1e-6, 2.5e-6, 5e-6,
	1e-5, 2.5e-5, 5e-5,
	1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3,
	1e-2, 2.5e-2, 5e-2,
	0.1, 0.25, 0.5,
	1, 2.5, 5, 10,
}

// Histogram is a fixed-bucket histogram with lock-free recording:
// per-bucket atomic counts plus a CAS-updated float sum. Snapshots are
// monotone — every bucket count and the total only ever grow. A nil
// *Histogram is a no-op.
type Histogram struct {
	upper  []float64       // ascending upper bounds; +Inf is implicit
	counts []atomic.Uint64 // len(upper)+1; last is the +Inf bucket
	sum    atomic.Uint64   // float64 bits
}

func newHistogram(buckets []float64) *Histogram {
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic("obs: histogram buckets must be strictly ascending")
		}
	}
	upper := make([]float64, len(buckets))
	copy(upper, buckets)
	return &Histogram{upper: upper, counts: make([]atomic.Uint64, len(upper)+1)}
}

// Observe records v.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Linear scan: bucket counts are small (~22) and the common values
	// land early; a branch-predicted scan beats binary search here.
	i := 0
	for i < len(h.upper) && v > h.upper[i] {
		i++
	}
	h.counts[i].Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// HistSnapshot is a point-in-time copy of a histogram. Counts are
// per-bucket (not cumulative), with the final entry the +Inf bucket.
type HistSnapshot struct {
	Counts []uint64
	Sum    float64
	Count  uint64
}

// Snapshot copies the current state. Concurrent observers may land
// between bucket reads, so Count can briefly lag the true total, but
// successive snapshots never decrease.
func (h *Histogram) Snapshot() HistSnapshot {
	if h == nil {
		return HistSnapshot{}
	}
	s := HistSnapshot{Counts: make([]uint64, len(h.counts))}
	for i := range h.counts {
		c := h.counts[i].Load()
		s.Counts[i] = c
		s.Count += c
	}
	s.Sum = math.Float64frombits(h.sum.Load())
	return s
}
