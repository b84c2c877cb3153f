package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestHistogramBucketBoundaries(t *testing.T) {
	h := newHistogram([]float64{1, 2, 4})
	// A value equal to an upper bound lands in that bucket (le is
	// inclusive, as in Prometheus).
	for _, v := range []float64{0.5, 1} {
		h.Observe(v)
	}
	h.Observe(1.5)
	h.Observe(4)
	h.Observe(100) // +Inf bucket
	s := h.Snapshot()
	want := []uint64{2, 1, 1, 1}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Errorf("bucket %d: got %d want %d (counts %v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if s.Count != 5 {
		t.Errorf("count: got %d want 5", s.Count)
	}
	if got, want := s.Sum, 0.5+1+1.5+4+100; math.Abs(got-want) > 1e-9 {
		t.Errorf("sum: got %v want %v", got, want)
	}
}

func TestHistogramAscendingRequired(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on non-ascending buckets")
		}
	}()
	newHistogram([]float64{1, 1})
}

// TestHistogramConcurrent hammers one histogram from many goroutines
// (run under -race in CI) and checks nothing is lost.
func TestHistogramConcurrent(t *testing.T) {
	h := newHistogram(DurationBuckets)
	const goroutines, per = 8, 5000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(float64(g*per+i) * 1e-7)
			}
		}(g)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != goroutines*per {
		t.Fatalf("count: got %d want %d", s.Count, goroutines*per)
	}
	// Sum of 0..n-1 scaled: n(n-1)/2 * 1e-7.
	n := float64(goroutines * per)
	want := n * (n - 1) / 2 * 1e-7
	if math.Abs(s.Sum-want) > want*1e-9 {
		t.Fatalf("sum: got %v want %v", s.Sum, want)
	}
}

// TestHistogramSnapshotMonotonic interleaves snapshots with a writer:
// per-bucket counts and the total must never decrease.
func TestHistogramSnapshotMonotonic(t *testing.T) {
	h := newHistogram([]float64{1e-6, 1e-3, 1})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 20000; i++ {
			h.Observe(float64(i%3) * 1e-4)
		}
	}()
	var prev HistSnapshot
	for {
		s := h.Snapshot()
		if s.Count < prev.Count {
			t.Fatalf("count went backwards: %d -> %d", prev.Count, s.Count)
		}
		for i := range s.Counts {
			if prev.Counts != nil && s.Counts[i] < prev.Counts[i] {
				t.Fatalf("bucket %d went backwards: %d -> %d", i, prev.Counts[i], s.Counts[i])
			}
		}
		prev = s
		select {
		case <-done:
			return
		default:
		}
	}
}

func TestRegistryPrometheusFormat(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("test_ops_total", "ops so far")
	c.Add(3)
	reg.GaugeFunc("test_depth", "queue depth", func() float64 { return 2.5 })
	reg.GaugeFunc("test_pull", "pulled at scrape", func() float64 { return 7 })
	h := reg.Histogram("test_latency_seconds", "latency", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE test_ops_total counter",
		"test_ops_total 3",
		"# TYPE test_depth gauge",
		"test_depth 2.5",
		"test_pull 7",
		`test_latency_seconds_bucket{le="0.1"} 1`,
		`test_latency_seconds_bucket{le="1"} 2`,
		`test_latency_seconds_bucket{le="+Inf"} 3`,
		"test_latency_seconds_sum 5.55",
		"test_latency_seconds_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestRegistryLabeledFamilies(t *testing.T) {
	reg := NewRegistry()
	a := reg.CounterL("jobs_total", `kind="a"`, "jobs")
	b := reg.CounterL("jobs_total", `kind="b"`, "jobs")
	a.Inc()
	b.Add(2)
	// Re-registering the same series returns the same handle.
	if reg.CounterL("jobs_total", `kind="a"`, "jobs") != a {
		t.Fatal("re-registration returned a new handle")
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Count(out, "# TYPE jobs_total counter") != 1 {
		t.Errorf("family header should appear once:\n%s", out)
	}
	for _, want := range []string{`jobs_total{kind="a"} 1`, `jobs_total{kind="b"} 2`} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestRegistrySnapshotJSON(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("a_total", "").Add(4)
	reg.GaugeFunc("b", "", func() float64 { return 1.5 })
	reg.Histogram("h_seconds", "", []float64{1}).Observe(0.5)
	snap := reg.Snapshot()
	js1, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	js2, _ := json.Marshal(reg.Snapshot())
	if !bytes.Equal(js1, js2) {
		t.Fatalf("snapshot not byte-stable:\n%s\n%s", js1, js2)
	}
	var back map[string]any
	if err := json.Unmarshal(js1, &back); err != nil {
		t.Fatal(err)
	}
	if back["a_total"].(float64) != 4 {
		t.Errorf("a_total: %v", back["a_total"])
	}
}

func TestNilHandlesAreNoOps(t *testing.T) {
	var reg *Registry
	c := reg.Counter("x", "")
	c.Inc()
	reg.GaugeFunc("y", "", nil)
	reg.CounterFunc("z", "", nil)
	reg.Histogram("h", "", DurationBuckets).Observe(1)
	if err := reg.WritePrometheus(io.Discard); err != nil {
		t.Fatal(err)
	}
	if reg.Snapshot() != nil {
		t.Fatal("nil registry snapshot should be nil")
	}

	var tr *Tracer
	sp := tr.StartW(3, StageDecode)
	sp.End()
	tr.Start(StageGeneration).End()
	tr.Mark(StageBackpressure)
	tr.ObserveSince(StageSessionAssembly, time.Now())
	if got := tr.Drain(nil); got != nil {
		t.Fatalf("nil tracer drain: %v", got)
	}
	if tr.Dropped() != 0 {
		t.Fatal("nil tracer state")
	}
}

func TestTracerSpansAndDrain(t *testing.T) {
	reg := NewRegistry()
	tr := NewTracer(reg, TracerConfig{Record: true})
	sp := tr.StartW(1, StageDecode)
	sp.End()
	tr.Mark(StageDegraded)
	evs := tr.Drain(nil)
	if len(evs) != 2 {
		t.Fatalf("got %d events, want 2: %+v", len(evs), evs)
	}
	var span, mark bool
	for _, e := range evs {
		switch e.Stage {
		case StageDecode:
			span = true
			if e.Worker != 1 {
				t.Errorf("worker: %d", e.Worker)
			}
		case StageDegraded:
			mark = true
			if e.Dur != 0 {
				t.Errorf("mark has duration %v", e.Dur)
			}
		}
	}
	if !span || !mark {
		t.Fatalf("missing events: %+v", evs)
	}
	if evs := tr.Drain(nil); len(evs) != 0 {
		t.Fatalf("drain not empty after drain: %+v", evs)
	}
	// Histogram fed regardless of drain state.
	s := tr.hist[StageDecode].Snapshot()
	if s.Count != 1 {
		t.Fatalf("decode histogram count: %d", s.Count)
	}
}

// TestTracerRingBounded fills one stripe (every span on worker 0) past
// its capacity: the stripe keeps stripeCap events and counts the rest
// as dropped.
func TestTracerRingBounded(t *testing.T) {
	reg := NewRegistry()
	tr := NewTracer(reg, TracerConfig{Record: true})
	for i := 0; i < stripeCap+12; i++ {
		tr.StartW(0, StageDecode).End()
	}
	evs := tr.Drain(nil)
	if len(evs) != 4096 {
		t.Fatalf("ring should cap at 4096, got %d", len(evs))
	}
	if tr.Dropped() != 12 {
		t.Fatalf("dropped: got %d want 12", tr.Dropped())
	}
}

func TestTracerDisabledRecordingStillMeters(t *testing.T) {
	reg := NewRegistry()
	tr := NewTracer(reg, TracerConfig{})
	tr.StartW(0, StageObjective).End()
	if evs := tr.Drain(nil); len(evs) != 0 {
		t.Fatalf("recording off but events buffered: %+v", evs)
	}
	if s := tr.hist[StageObjective].Snapshot(); s.Count != 1 {
		t.Fatalf("histogram count: %d", s.Count)
	}
}

func TestStageNames(t *testing.T) {
	seen := map[string]bool{}
	for s := Stage(0); s < numStages; s++ {
		n := s.String()
		if n == "" || n == "unknown" || seen[n] {
			t.Fatalf("stage %d has bad/duplicate name %q", s, n)
		}
		seen[n] = true
	}
}

func TestRecorderRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	reg := NewRegistry()
	tr := NewTracer(reg, TracerConfig{Record: true})
	reg.Counter("rt_ops_total", "").Add(9)
	rec, err := NewRecorder(path, tr, reg, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	tr.StartW(2, StageGeneration).End()
	tr.Mark(StageBackpressure)
	time.Sleep(30 * time.Millisecond)
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var types []string
	var meta, span, mark, metrics bool
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var l TraceLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Fatalf("bad line %q: %v", sc.Text(), err)
		}
		types = append(types, l.Type)
		switch l.Type {
		case "meta":
			meta = true
			if l.Format != TraceFormat || l.Version != TraceVersion {
				t.Fatalf("meta: %+v", l)
			}
		case "span":
			span = true
			if l.Stage != "generation" || l.Worker == nil || *l.Worker != 2 {
				t.Fatalf("span: %+v", l)
			}
		case "mark":
			mark = true
			if l.Stage != "backpressure" {
				t.Fatalf("mark: %+v", l)
			}
		case "metrics":
			metrics = true
			if l.Metrics["rt_ops_total"].(float64) != 9 {
				t.Fatalf("metrics: %+v", l.Metrics)
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !meta || !span || !mark || !metrics {
		t.Fatalf("missing line types, saw %v", types)
	}
	if types[0] != "meta" {
		t.Fatalf("meta must come first, saw %v", types)
	}
}

func TestServeMuxAndShutdown(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("mux_hits_total", "hits").Add(5)
	mux := NewMux(reg)
	mux.HandleFunc("GET /extra", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprint(w, "extra-ok")
	})
	srv, err := Serve("127.0.0.1:0", mux)
	if err != nil {
		t.Fatal(err)
	}
	get := func(path string) string {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s", path, resp.Status)
		}
		b, _ := io.ReadAll(resp.Body)
		return string(b)
	}
	if out := get("/metrics"); !strings.Contains(out, "mux_hits_total 5") {
		t.Errorf("/metrics missing counter:\n%s", out)
	}
	// /metrics is the only metrics surface: no expvar JSON endpoint.
	if resp, err := http.Get("http://" + srv.Addr() + "/debug/vars"); err != nil {
		t.Fatalf("GET /debug/vars: %v", err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET /debug/vars: %s, want 404", resp.Status)
		}
	}
	if out := get("/debug/pprof/cmdline"); out == "" {
		t.Error("/debug/pprof/cmdline empty")
	}
	if out := get("/extra"); out != "extra-ok" {
		t.Errorf("extra route: %q", out)
	}
	if err := srv.Shutdown(2 * time.Second); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// Idempotent.
	if err := srv.Shutdown(time.Second); err != nil {
		t.Fatalf("second shutdown: %v", err)
	}
}

// TestRecorderWriteFailure: a dying trace file must surface as a
// terminal Close error carrying the dropped-line count, never as a
// silently truncated stream.
func TestRecorderWriteFailure(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	reg := NewRegistry()
	tr := NewTracer(reg, TracerConfig{Record: true})
	rec, err := NewRecorder(path, tr, reg, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	rec.f.Close() // the disk dies under the recorder
	tr.Mark(StageBackpressure)
	time.Sleep(20 * time.Millisecond) // first flush fails, sets the terminal error
	tr.Mark(StageBackpressure)
	time.Sleep(20 * time.Millisecond) // later lines are counted as dropped

	err = rec.Close()
	if err == nil {
		t.Fatal("Close returned nil after write failures")
	}
	msg := err.Error()
	var dropped int
	if i := strings.LastIndex(msg, "("); i < 0 {
		t.Fatalf("terminal error does not carry the dropped count: %v", err)
	} else if _, serr := fmt.Sscanf(msg[i:], "(%d trace lines dropped)", &dropped); serr != nil || dropped == 0 {
		t.Fatalf("terminal error reports %d dropped lines (%v): %v", dropped, serr, err)
	}
}
