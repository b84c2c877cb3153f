package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/casestudy"
	"repro/internal/core"
	"repro/internal/fleet"
)

func TestQuantileInterpolates(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		q    float64
		want float64
	}{
		{[]float64{4, 1, 3, 2}, 0.5, 2.5},
		{[]float64{4, 1, 3, 2}, 0.9, 3.7},
		{[]float64{7}, 0.9, 7},
		{nil, 0.5, 0},
	} {
		if got := quantile(c.xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v, %v) = %v, want %v", c.xs, c.q, got, c.want)
		}
	}
}

// TestBenchmarkDefinition keeps BENCHMARK.json and the harness in step:
// every per-layer metric names the end-to-end metric it should move,
// and setup_s carries the largest bound.
func TestBenchmarkDefinition(t *testing.T) {
	def, err := loadBench(filepath.Join("..", benchFile))
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	for _, d := range def.PerLayer {
		if moves[d.Name] == "" {
			t.Errorf("per-layer metric %s has no entry in moves", d.Name)
		}
		seen[d.Name] = true
	}
	for name := range moves {
		if !seen[name] {
			t.Errorf("moves names %s, which BENCHMARK.json does not list", name)
		}
	}
	var raw struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	b, err := os.ReadFile(filepath.Join("..", benchFile))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &raw); err != nil {
		t.Fatal(err)
	}
	setup := -1.0
	for _, m := range raw.EndToEnd {
		if m.Name == "setup_s" {
			setup = m.Bound
		}
	}
	for _, m := range raw.EndToEnd {
		if m.Bound > setup {
			t.Errorf("%s has bound %v above setup_s's %v", m.Name, m.Bound, setup)
		}
	}
}

func TestResultLine(t *testing.T) {
	defs := []metricDef{{"a", "ms"}, {"b", "s"}}
	r := &run{attempted: 3}
	r.set("a", 1.5)
	if _, err := resultLine(r, defs, true); err == nil {
		t.Error("an end-to-end metric that was not measured must be an error")
	}
	line, err := resultLine(r, defs, false)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"correct":true,"attempted":3,"failed":0,"metrics":{"a":{"value":1.5,"unit":"ms"},"b":{"value":0,"unit":"s"}}}`
	if line != want {
		t.Errorf("result line\n got %s\nwant %s", line, want)
	}
}

// TestRecordingRepeats pins the recorder's contract: a seed fixes every
// count and the reference summary, another seed changes them, and a
// replay by concurrent clients reproduces the reference server.
func TestRecordingRepeats(t *testing.T) {
	arch, err := buildArch()
	if err != nil {
		t.Fatal(err)
	}
	pop := population{vehicles: 48, ecus: 3, sessions: 3, failProb: 0.3, errorRate: 2e-4}
	a, err := record(pop, 1, arch)
	if err != nil {
		t.Fatal(err)
	}
	b, err := record(pop, 1, arch)
	if err != nil {
		t.Fatal(err)
	}
	if a.chunks != b.chunks || a.rejects != b.rejects || a.acks != b.acks || string(a.refSummary) != string(b.refSummary) {
		t.Fatalf("same seed, different recordings: %d/%d/%d vs %d/%d/%d", a.chunks, a.rejects, a.acks, b.chunks, b.rejects, b.acks)
	}
	if a.rejects == 0 {
		t.Fatal("the error rate should make the reference server reject some chunks")
	}
	c, err := record(pop, 2, arch)
	if err != nil {
		t.Fatal(err)
	}
	if string(a.refSummary) == string(c.refSummary) {
		t.Error("another seed should give another population")
	}

	srv := fleet.New(fleet.Config{})
	srv.SetArch(arch)
	rep := replayInto(srv, a, 1, pop.sessions, 2, true)
	if rep.lost+rep.mismatches != 0 || rep.acks != a.acks {
		t.Fatalf("replay: %d lost, %d verdicts differ, %d of %d acked", rep.lost, rep.mismatches, rep.acks, a.acks)
	}
	if len(rep.commit) != a.acks || len(rep.commit)+len(rep.chunk) != a.chunks {
		t.Errorf("traced replay timed %d commits and %d other chunks of %d", len(rep.commit), len(rep.chunk), a.chunks)
	}
	if err := checkSummary("replay", srv, a); err != nil {
		t.Fatal(err)
	}
}

// TestProbeForwards checks the decoder wrapper keeps the per-worker SAT
// path and the solver counters of the decoder it wraps.
func TestProbeForwards(t *testing.T) {
	spec, err := casestudy.Small(3, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := core.NewSATDecoder(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	var d core.Decoder = newProbe(dec, 2, true)
	wd, ok := d.(core.WorkerDecoder)
	if !ok {
		t.Fatal("probe does not implement core.WorkerDecoder")
	}
	g := make([]float64, d.GenotypeLen())
	for i := range g {
		g[i] = float64(i%7) / 7
	}
	x, err := wd.DecodeWorker(1, g)
	if err != nil {
		t.Fatal(err)
	}
	want, err := dec.Decode(g)
	if err != nil {
		t.Fatal(err)
	}
	if !sameImpl(x, want) {
		t.Error("probe decode differs from the wrapped decoder's")
	}
	sr, ok := d.(core.SolverStatsReporter)
	if !ok {
		t.Fatal("probe does not implement core.SolverStatsReporter")
	}
	gc, gp := sr.SolverStats()
	wc, wp := dec.SolverStats()
	if gc != wc || gp != wp || gp == 0 {
		t.Errorf("SolverStats = %d/%d, wrapped decoder reports %d/%d", gc, gp, wc, wp)
	}
	p := d.(*probe)
	if len(p.slots[1].decode) != 1 {
		t.Error("traced probe did not time the worker's decode")
	}
}

// TestCampaignSolverCounts checks that a campaign's SAT counter deltas
// are its own: an untraced and a traced campaign on one decoder split
// the decoder's cumulative counters between them, so the per-evaluation
// counts of the traced campaigns leave the untraced ones out.
func TestCampaignSolverCounts(t *testing.T) {
	spec, err := casestudy.Small(3, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := core.NewSATDecoder(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	sys := &dseSystem{spec: spec, dec: dec, sat: dec}
	k := dseKind{name: "test", sat: true, pop: 8}
	c0, p0 := dec.SolverStats()
	u, err := runCampaign(sys, k, 2, 1, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	tc, err := runCampaign(sys, k, 2, 1, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	c1, p1 := dec.SolverStats()
	if u.propagations == 0 || tc.propagations == 0 {
		t.Fatalf("campaign propagations %d and %d, want both > 0", u.propagations, tc.propagations)
	}
	if u.conflicts+tc.conflicts != c1-c0 || u.propagations+tc.propagations != p1-p0 {
		t.Errorf("campaign deltas %d+%d conflicts, %d+%d propagations; decoder counted %d, %d",
			u.conflicts, tc.conflicts, u.propagations, tc.propagations, c1-c0, p1-p0)
	}
}
