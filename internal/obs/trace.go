package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Stage identifies one instrumented region of the DSE or fleet
// pipeline.
type Stage uint8

const (
	// DSE pipeline.
	StageDecode     Stage = iota // SAT/greedy decode of one genotype
	StageObjective               // objective evaluation of one decoded architecture
	StageGeneration              // one NSGA-II generation step
	StageMigration               // one island migration epoch (ring exchange)
	StageShardSpawn              // one worker-process spawn within a shard epoch
	StageShardMerge              // read + merge + checkpoint of shard outputs

	// Fleet ingest path.
	StageChunkAccept     // one chunk through Server.IngestChunk
	StageSessionAssembly // session open → record stored
	StageGatewaySession  // one gateway transfer session end to end
	StageBackpressure    // mark: chunk rejected by a capacity limit
	StageDegraded        // mark: session fell back to degraded local storage

	// Durable storage path.
	StageWALAppend // one WAL append through its (group-committed) fsync
	StageSnapshot  // one atomic state snapshot written and installed
	StageRecover   // startup recovery: snapshot load + WAL tail replay

	numStages
)

var stageNames = [numStages]string{
	"decode", "objective", "generation", "migration", "shard_spawn", "shard_merge",
	"chunk_accept", "session_assembly", "gateway_session", "backpressure", "degraded",
	"wal_append", "snapshot", "recover",
}

func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return "unknown"
}

// Event is one recorded span or mark, timed against the tracer epoch.
// Dur is zero for marks.
type Event struct {
	Stage  Stage
	Worker int32 // -1 when the caller has no stable worker index
	Start  time.Duration
	Dur    time.Duration
}

// TracerConfig tunes the event buffers. The zero value records no
// events (histograms only).
type TracerConfig struct {
	Record bool // buffer events for a flight recorder; metrics are always on
}

const (
	traceStripes = 8    // independent event rings (reduce contention across workers)
	stripeCap    = 4096 // events per stripe; overflow increments the dropped counter
)

type eventStripe struct {
	mu  sync.Mutex
	buf []Event
	_   [32]byte // keep stripes off each other's cache lines
}

// Tracer hands out Spans for the instrumented stages. Ending a span
// feeds a per-stage latency histogram and, when recording, pushes an
// event into a bounded stripe ring. All methods are nil-receiver
// no-ops, so disabled call sites cost one nil check.
type Tracer struct {
	epoch   time.Time
	hist    [numStages]*Histogram
	marks   [numStages]*Counter
	record  bool
	stripes [traceStripes]eventStripe
	rr      atomic.Uint32
	dropped atomic.Uint64
}

// NewTracer builds a tracer registering one duration histogram and one
// event counter per stage on reg (label stage="...").
func NewTracer(reg *Registry, cfg TracerConfig) *Tracer {
	t := &Tracer{epoch: time.Now(), record: cfg.Record}
	for s := Stage(0); s < numStages; s++ {
		t.hist[s] = reg.HistogramL("obs_stage_duration_seconds", `stage="`+s.String()+`"`,
			"latency distribution of each instrumented pipeline stage", DurationBuckets)
		t.marks[s] = reg.CounterL("obs_stage_events_total", `stage="`+s.String()+`"`,
			"instantaneous events marked per stage")
	}
	reg.CounterFunc("obs_trace_dropped_total", "trace events dropped on ring overflow",
		func() float64 { return float64(t.dropped.Load()) })
	return t
}

// Span is an open timed region. The zero Span (from a nil tracer) is
// inert; End on it does nothing. Spans are plain values — starting and
// ending one allocates nothing.
type Span struct {
	t      *Tracer
	start  time.Time
	worker int32
	stage  Stage
}

// Start opens a span with no worker affinity.
func (t *Tracer) Start(stage Stage) Span {
	return t.StartW(-1, stage)
}

// StartW opens a span attributed to a stable worker index. The index
// only labels the event and picks the buffer stripe — it never affects
// scheduling.
func (t *Tracer) StartW(worker int, stage Stage) Span {
	if t == nil {
		return Span{}
	}
	return Span{t: t, start: time.Now(), worker: int32(worker), stage: stage}
}

// End closes the span: one histogram observation, plus an event push
// when recording.
func (sp Span) End() {
	if sp.t == nil {
		return
	}
	d := time.Since(sp.start)
	sp.t.hist[sp.stage].Observe(d.Seconds())
	if sp.t.record {
		sp.t.push(Event{Stage: sp.stage, Worker: sp.worker, Start: sp.start.Sub(sp.t.epoch), Dur: d})
	}
}

// ObserveSince records a span for a region whose start was captured
// earlier (e.g. session assembly spanning many chunk calls).
func (t *Tracer) ObserveSince(stage Stage, start time.Time) {
	if t == nil {
		return
	}
	d := time.Since(start)
	t.hist[stage].Observe(d.Seconds())
	if t.record {
		t.push(Event{Stage: stage, Worker: -1, Start: start.Sub(t.epoch), Dur: d})
	}
}

// Mark records an instantaneous event (backpressure, degraded-mode
// transition): one counter bump, plus a zero-duration event when
// recording.
func (t *Tracer) Mark(stage Stage) {
	if t == nil {
		return
	}
	t.marks[stage].Inc()
	if t.record {
		t.push(Event{Stage: stage, Worker: -1, Start: time.Since(t.epoch)})
	}
}

// push appends e to its stripe, dropping the event (and counting the
// drop) when the ring is full between recorder drains. Oldest events
// win: a full buffer means the recorder is behind, and keeping the
// head preserves the earliest unseen history.
func (t *Tracer) push(e Event) {
	idx := e.Worker
	if idx < 0 {
		idx = int32(t.rr.Add(1))
	}
	st := &t.stripes[uint32(idx)%traceStripes]
	st.mu.Lock()
	if len(st.buf) >= stripeCap {
		st.mu.Unlock()
		t.dropped.Add(1)
		return
	}
	st.buf = append(st.buf, e)
	st.mu.Unlock()
}

// Drain appends all buffered events to dst (clearing the buffers) and
// returns it. Events within one stripe are in completion order; across
// stripes they interleave — consumers sort by Start.
func (t *Tracer) Drain(dst []Event) []Event {
	if t == nil {
		return dst
	}
	for i := range t.stripes {
		st := &t.stripes[i]
		st.mu.Lock()
		dst = append(dst, st.buf...)
		st.buf = st.buf[:0]
		st.mu.Unlock()
	}
	return dst
}

// Dropped returns the total events lost to ring overflow.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	return t.dropped.Load()
}
