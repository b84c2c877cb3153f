// Package obs is the unified observability layer: a dependency-free
// metrics registry (atomic counters, gauges, fixed-bucket histograms)
// exposed as Prometheus text and JSON snapshots, span-style stage
// tracing with bounded per-worker event buffers, and a JSONL flight
// recorder for post-mortem analysis.
//
// The package is strictly non-intrusive: nothing here touches RNG
// state or evaluation order, every handle is nil-receiver safe so a
// disabled path costs one nil check, and reads are snapshot-on-read so
// the hot path never takes a lock.
package obs

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing uint64. The zero value is
// ready to use; a nil *Counter is a no-op.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

type metricKind uint8

const (
	kindCounter metricKind = iota
	kindHistogram
	kindCounterFunc
	kindGaugeFunc
)

func (k metricKind) promType() string {
	switch k {
	case kindCounter, kindCounterFunc:
		return "counter"
	case kindHistogram:
		return "histogram"
	default:
		return "gauge"
	}
}

// metric is one registered sample series: a family name, an optional
// rendered label set, and exactly one backing store.
type metric struct {
	name   string // family name, e.g. obs_stage_duration_seconds
	labels string // rendered labels without braces, e.g. `stage="decode"`; "" for none
	help   string
	kind   metricKind

	counter *Counter
	hist    *Histogram
	fn      func() float64 // kindCounterFunc / kindGaugeFunc
}

func (m *metric) key() string { return m.name + "{" + m.labels + "}" }

// Registry holds registered metrics. Registration takes a lock;
// recording on the returned handles is lock-free. A nil *Registry
// accepts registrations as no-ops and returns nil handles, so callers
// can thread one pointer through and never branch.
type Registry struct {
	mu       sync.Mutex
	metrics  []*metric
	byKey    map[string]*metric
	families map[string]metricKind
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		byKey:    make(map[string]*metric),
		families: make(map[string]metricKind),
	}
}

// register adds m unless the key already exists, in which case the
// existing metric is returned (callers re-registering the same series
// share the handle). Registering the same family under two different
// kinds is a programming error.
func (r *Registry) register(m *metric) *metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	if prev, ok := r.byKey[m.key()]; ok {
		if prev.kind != m.kind {
			panic(fmt.Sprintf("obs: metric %s re-registered as %s (was %s)",
				m.key(), m.kind.promType(), prev.kind.promType()))
		}
		// Func metrics swap the closure so tests and restarts can
		// re-point a series; stored metrics share the handle.
		if m.fn != nil {
			prev.fn = m.fn
		}
		return prev
	}
	if k, ok := r.families[m.name]; ok && k.promType() != m.kind.promType() {
		panic(fmt.Sprintf("obs: family %s mixes %s and %s", m.name, k.promType(), m.kind.promType()))
	}
	r.families[m.name] = m.kind
	r.byKey[m.key()] = m
	r.metrics = append(r.metrics, m)
	return m
}

// Counter registers (or returns the existing) counter series.
func (r *Registry) Counter(name, help string) *Counter {
	return r.CounterL(name, "", help)
}

// CounterL is Counter with a rendered label set (e.g. `stage="decode"`).
func (r *Registry) CounterL(name, labels, help string) *Counter {
	if r == nil {
		return nil
	}
	m := r.register(&metric{name: name, labels: labels, help: help, kind: kindCounter, counter: &Counter{}})
	return m.counter
}

// CounterFunc registers a pull-style counter: fn is called at
// snapshot/scrape time. Use for totals already accounted elsewhere
// (e.g. summed shard counters) to avoid double bookkeeping on the hot
// path.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	if r == nil {
		return
	}
	r.register(&metric{name: name, help: help, kind: kindCounterFunc, fn: fn})
}

// GaugeFunc registers a pull-style gauge.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	if r == nil {
		return
	}
	r.register(&metric{name: name, help: help, kind: kindGaugeFunc, fn: fn})
}

// Histogram registers (or returns the existing) histogram series with
// the given ascending upper bucket bounds (+Inf is implicit).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	return r.HistogramL(name, "", help, buckets)
}

// HistogramL is Histogram with a rendered label set.
func (r *Registry) HistogramL(name, labels, help string, buckets []float64) *Histogram {
	if r == nil {
		return nil
	}
	m := r.register(&metric{name: name, labels: labels, help: help, kind: kindHistogram, hist: newHistogram(buckets)})
	return m.hist
}

// snapshotLocked returns the registered metrics in registration order.
func (r *Registry) snapshot() []*metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*metric, len(r.metrics))
	copy(out, r.metrics)
	return out
}

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders every registered series in the Prometheus
// text exposition format, families in registration order with one
// HELP/TYPE header each.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	seen := make(map[string]bool)
	var err error
	p := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	for _, m := range r.snapshot() {
		if !seen[m.name] {
			seen[m.name] = true
			if m.help != "" {
				p("# HELP %s %s\n", m.name, m.help)
			}
			p("# TYPE %s %s\n", m.name, m.kind.promType())
		}
		suffix := ""
		if m.labels != "" {
			suffix = "{" + m.labels + "}"
		}
		switch m.kind {
		case kindCounter:
			p("%s%s %d\n", m.name, suffix, m.counter.Value())
		case kindCounterFunc, kindGaugeFunc:
			p("%s%s %s\n", m.name, suffix, formatFloat(m.fn()))
		case kindHistogram:
			s := m.hist.Snapshot()
			cum := uint64(0)
			for i, ub := range m.hist.upper {
				cum += s.Counts[i]
				p("%s_bucket%s %d\n", m.name, mergeLabels(m.labels, `le="`+formatFloat(ub)+`"`), cum)
			}
			p("%s_bucket%s %d\n", m.name, mergeLabels(m.labels, `le="+Inf"`), s.Count)
			p("%s_sum%s %s\n", m.name, suffix, formatFloat(s.Sum))
			p("%s_count%s %d\n", m.name, suffix, s.Count)
		}
	}
	return err
}

func mergeLabels(base, extra string) string {
	if base == "" {
		return "{" + extra + "}"
	}
	return "{" + base + "," + extra + "}"
}

// Snapshot returns every series as a JSON-marshalable map keyed by
// name (plus "{labels}" when labeled). Counters render as uint64,
// gauges as float64, histograms as {count, sum, buckets}. Keys are
// sorted by encoding/json on marshal, so snapshots of the same
// registry state are byte-stable.
func (r *Registry) Snapshot() map[string]any {
	if r == nil {
		return nil
	}
	out := make(map[string]any)
	for _, m := range r.snapshot() {
		key := m.name
		if m.labels != "" {
			key += "{" + m.labels + "}"
		}
		switch m.kind {
		case kindCounter:
			out[key] = m.counter.Value()
		case kindCounterFunc, kindGaugeFunc:
			out[key] = m.fn()
		case kindHistogram:
			s := m.hist.Snapshot()
			buckets := make(map[string]uint64, len(s.Counts))
			cum := uint64(0)
			for i, ub := range m.hist.upper {
				cum += s.Counts[i]
				buckets[formatFloat(ub)] = cum
			}
			buckets["+Inf"] = s.Count
			out[key] = map[string]any{"count": s.Count, "sum": s.Sum, "buckets": buckets}
		}
	}
	return out
}
