package core

import (
	"context"
	"path/filepath"
	"sync/atomic"
	"testing"

	"repro/internal/casestudy"
	"repro/internal/model"
	"repro/internal/moea"
)

func frontsEqual(t *testing.T, a, b *Result, label string) {
	t.Helper()
	if len(a.Solutions) != len(b.Solutions) {
		t.Fatalf("%s: front size %d vs %d", label, len(a.Solutions), len(b.Solutions))
	}
	for i := range a.Solutions {
		if a.Solutions[i].Objectives != b.Solutions[i].Objectives {
			t.Fatalf("%s: solution %d = %+v vs %+v",
				label, i, a.Solutions[i].Objectives, b.Solutions[i].Objectives)
		}
	}
}

// TestExplorerIslandsDeterministicAcrossWorkers is the end-to-end
// island acceptance gate on the real explorer + SAT decoder: a fixed
// (seed, islands, migration) tuple must produce the identical merged
// front at every worker count, exercising the per-worker pinned
// decoder states across distinct genotype streams.
func TestExplorerIslandsDeterministicAcrossWorkers(t *testing.T) {
	spec, err := casestudy.Small(3, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := NewSATDecoder(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	ex := NewExplorer(spec, dec)
	ex.Verify = true
	var ref *Result
	for _, w := range []int{1, 2, 4} {
		res, err := ex.RunContext(context.Background(), moea.Options{PopSize: 12, Generations: 9, Seed: 13, Workers: w,
			Islands: 3, MigrateEvery: 3, Migrants: 2})
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if res.Evaluations == 0 {
			t.Fatalf("workers=%d: no evaluations recorded", w)
		}
		if ref == nil {
			ref = res
			continue
		}
		frontsEqual(t, ref, res, "island worker sweep")
	}
}

// TestExplorerIslandsCheckpointResume: an island campaign checkpointed
// to a file on cancellation resumes byte-identically at a different
// worker count.
func TestExplorerIslandsCheckpointResume(t *testing.T) {
	spec := smallSpec(t)
	dec, err := NewGreedyDecoder(spec)
	if err != nil {
		t.Fatal(err)
	}
	ex := NewExplorer(spec, dec)
	opt := moea.Options{PopSize: 16, Generations: 12, Seed: 5, Workers: 2, Islands: 2, MigrateEvery: 4, Migrants: 2}

	full, err := ex.RunContext(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "island.json")
	ctx, cancel := context.WithCancel(context.Background())
	stop := &stopAfterDecoder{Decoder: dec, cancelAt: 16 * 6, cancel: cancel}
	exCancel := NewExplorer(spec, stop)
	cancelOpt := opt
	cancelOpt.OnCheckpoint = func(cp *moea.IslandCheckpoint) error { return cp.WriteFile(path) }
	_, err = exCancel.RunContext(ctx, cancelOpt)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}

	cp, err := moea.ReadIslandCheckpointFile(path)
	if err != nil {
		t.Fatal(err)
	}
	resumeOpt := opt
	resumeOpt.Workers = 4
	resumeOpt.Resume = cp
	res, err := ex.RunContext(context.Background(), resumeOpt)
	if err != nil {
		t.Fatal(err)
	}
	frontsEqual(t, full, res, "resumed island campaign")
	if res.Evaluations != full.Evaluations {
		t.Fatalf("resumed evaluations %d, want %d", res.Evaluations, full.Evaluations)
	}
}

// stopAfterDecoder cancels the run context after a fixed number of
// decodes, forcing a mid-campaign checkpoint. Workers decode
// concurrently, so the count is atomic.
type stopAfterDecoder struct {
	Decoder
	evals    atomic.Int64
	cancelAt int64
	cancel   context.CancelFunc
}

func (s *stopAfterDecoder) Decode(g []float64) (*model.Implementation, error) {
	if s.evals.Add(1) == s.cancelAt {
		s.cancel()
	}
	return s.Decoder.Decode(g)
}

// TestSATDecodeWorkerMatchesDecode: the pinned-state decode path must
// be indistinguishable from the pooled path for the same genotypes.
func TestSATDecodeWorkerMatchesDecode(t *testing.T) {
	spec := smallSpec(t)
	dec, err := NewSATDecoder(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	g := make([]float64, dec.GenotypeLen())
	for i := range g {
		g[i] = float64((i*37)%101) / 101
	}
	a, err := dec.Decode(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{0, 3, 1} { // out-of-order first sight grows the slice
		b, err := dec.DecodeWorker(w, g)
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
		if a.Binding.Len() != b.Binding.Len() {
			t.Fatalf("worker %d: binding size differs", w)
		}
		for _, m := range a.Binding.Mappings() {
			if b.Binding.Get(m.Task) != m.Resource {
				t.Fatalf("worker %d: binding of %s differs from pooled decode", w, m.Task)
			}
		}
	}
}
