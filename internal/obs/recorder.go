package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// TraceFormat and TraceVersion identify the flight-recorder JSONL
// schema; the meta line carries both so cmd/obsdump can validate files.
const (
	TraceFormat  = "eedse-obs-trace"
	TraceVersion = 1
)

// TraceLine is one JSONL record in a flight-recorder file. Type is
// one of "meta", "span", "mark", "metrics", "dropped".
type TraceLine struct {
	Type    string `json:"type"`
	Format  string `json:"format,omitempty"`  // meta
	Version int    `json:"version,omitempty"` // meta
	Wall    string `json:"wall,omitempty"`    // meta: RFC3339Nano wall-clock start

	Stage   string `json:"stage,omitempty"`  // span, mark
	Worker  *int32 `json:"worker,omitempty"` // span
	StartUS int64  `json:"start_us,omitempty"`
	DurUS   int64  `json:"dur_us,omitempty"` // span

	Metrics map[string]any `json:"metrics,omitempty"` // metrics
	Count   uint64         `json:"count,omitempty"`   // dropped
}

// Recorder streams trace events and periodic metric snapshots to a
// JSONL file from a background goroutine. The hot path only ever
// touches the tracer's stripe rings; file IO happens here.
type Recorder struct {
	t        *Tracer
	reg      *Registry
	interval time.Duration
	start    time.Time

	f  *os.File
	bw *bufio.Writer

	mu            sync.Mutex
	scratch       []Event
	err           error
	droppedWrites uint64
	lastDropped   uint64

	stop chan struct{}
	done chan struct{}
}

// NewRecorder opens path, writes the meta line, and starts flushing
// every interval (default 250ms). The tracer should have been built
// with Record: true, otherwise only metric snapshots are written.
func NewRecorder(path string, t *Tracer, reg *Registry, interval time.Duration) (*Recorder, error) {
	if interval <= 0 {
		interval = 250 * time.Millisecond
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	r := &Recorder{
		t:        t,
		reg:      reg,
		interval: interval,
		start:    time.Now(),
		f:        f,
		bw:       bufio.NewWriterSize(f, 1<<16),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	r.writeLine(TraceLine{
		Type:    "meta",
		Format:  TraceFormat,
		Version: TraceVersion,
		Wall:    r.start.Format(time.RFC3339Nano),
	})
	go r.loop()
	return r, nil
}

func (r *Recorder) loop() {
	defer close(r.done)
	tick := time.NewTicker(r.interval)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			r.flush()
		case <-r.stop:
			r.flush()
			return
		}
	}
}

// flush drains the tracer rings, appends a metrics line, and spills
// the buffer to disk.
func (r *Recorder) flush() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.scratch = r.t.Drain(r.scratch[:0])
	for i := range r.scratch {
		e := &r.scratch[i]
		line := TraceLine{
			Stage:   e.Stage.String(),
			StartUS: e.Start.Microseconds(),
		}
		if e.Dur > 0 || e.Worker >= 0 {
			line.Type = "span"
			w := e.Worker
			line.Worker = &w
			line.DurUS = e.Dur.Microseconds()
		} else {
			line.Type = "mark"
		}
		r.writeLine(line)
	}
	if d := r.t.Dropped(); d != r.lastDropped {
		r.writeLine(TraceLine{Type: "dropped", Count: d - r.lastDropped})
		r.lastDropped = d
	}
	if r.reg != nil {
		r.writeLine(TraceLine{
			Type:    "metrics",
			StartUS: time.Since(r.start).Microseconds(),
			Metrics: r.reg.Snapshot(),
		})
	}
	// Flush every cycle, not just the final one: a sick disk surfaces
	// as an error within one interval instead of whenever the 64 KiB
	// buffer happens to spill.
	if err := r.bw.Flush(); err != nil && r.err == nil {
		r.err = err
	}
}

// writeLine is called with r.mu held (or before the loop starts). Once
// the stream has failed, further lines are counted as dropped instead
// of written — the trace file ends at the first error rather than
// continuing with holes.
func (r *Recorder) writeLine(l TraceLine) {
	if r.err != nil {
		r.droppedWrites++
		return
	}
	b, err := json.Marshal(l)
	if err == nil {
		_, err = r.bw.Write(append(b, '\n'))
	}
	if err != nil {
		r.err = err
		r.droppedWrites++
	}
}

// Close stops the flush loop, performs a final drain, and closes the
// file. The returned error is terminal: the first failure seen
// anywhere in the stream, annotated with how many trace lines it cost.
func (r *Recorder) Close() error {
	if r == nil {
		return nil
	}
	close(r.stop)
	<-r.done
	r.mu.Lock()
	err := r.err
	dropped := r.droppedWrites
	r.mu.Unlock()
	if cerr := r.f.Close(); err == nil {
		err = cerr
	}
	if err != nil && dropped > 0 {
		return fmt.Errorf("%w (%d trace lines dropped)", err, dropped)
	}
	return err
}
