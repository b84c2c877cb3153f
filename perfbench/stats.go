package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between order statistics; xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// durs collects durations; it converts to float64 in the caller's unit.
type durs []time.Duration

func (d durs) in(unit time.Duration) []float64 {
	out := make([]float64, len(d))
	for i, v := range d {
		out[i] = float64(v) / float64(unit)
	}
	return out
}

// setupBudget is how long start-up is repeated back to back; setup_s is
// the median, so a start-up shorter than this is never one sample.
const setupBudget = 500 * time.Millisecond

// minSamples is the smallest sample count a reported percentile may
// rest on: p90 then has at least ten samples beyond it.
const minSamples = 100

// retainedMiB measures the live heap a system under test retains: the
// heap after a full collection with it alive, minus the heap after drop
// releases the last reference and another collection runs.
func retainedMiB(drop func()) float64 {
	alive := liveHeap()
	drop()
	return float64(int64(alive)-int64(liveHeap())) / (1 << 20)
}

func liveHeap() uint64 {
	runtime.GC()
	runtime.GC() // a second cycle also frees what the first one's finalizers and pools released
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// splitmix64 derives independent deterministic streams from the seed.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// stageTotal is one obs stage's histogram: total seconds and span count.
type stageTotal struct {
	sum   float64
	count uint64
}

// obsTotals reads the tracer's per-stage duration histograms from its
// registry.
func obsTotals(reg *obs.Registry) map[string]stageTotal {
	const prefix = `obs_stage_duration_seconds{stage="`
	out := make(map[string]stageTotal)
	for k, v := range reg.Snapshot() {
		if !strings.HasPrefix(k, prefix) {
			continue
		}
		h, ok := v.(map[string]any)
		if !ok {
			continue
		}
		s, _ := h["sum"].(float64)
		n, _ := h["count"].(uint64)
		out[strings.TrimSuffix(k[len(prefix):], `"}`)] = stageTotal{s, n}
	}
	return out
}

// crossCheck prints one obs stage's total beside the harness's own
// timing of the same work.
func crossCheck(w io.Writer, stage string, st stageTotal, harness float64, what string) {
	fmt.Fprintf(w, "  %-16s obs %9.4f s (%7d spans)   harness %9.4f s (%s)   diff %+.4f s\n",
		stage, st.sum, st.count, harness, what, st.sum-harness)
}
