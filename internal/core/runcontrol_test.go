package core

import (
	"context"
	"errors"
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/model"
	"repro/internal/moea"
	"repro/internal/objective"
)

// breakingDecoder wraps a real decoder and corrupts every Nth
// implementation by unbinding a mandatory task — the regression trigger
// for the Verify-mode worker panic.
type breakingDecoder struct {
	inner Decoder
	every int64
	n     atomic.Int64
}

func (d *breakingDecoder) GenotypeLen() int { return d.inner.GenotypeLen() }

func (d *breakingDecoder) Decode(g []float64) (*model.Implementation, error) {
	x, err := d.inner.Decode(g)
	if err != nil {
		return nil, err
	}
	if d.every > 0 && d.n.Add(1)%d.every == 0 {
		for _, m := range x.Binding.Mappings() {
			if t := x.Spec.App.Task(m.Task); t != nil && !t.Kind.Diagnostic() {
				x.Unbind(m.Task)
				break
			}
		}
	}
	return x, nil
}

// failingDecoder rejects genotypes whose first gene is below the
// threshold, exercising the decode-failure penalty path.
type failingDecoder struct {
	inner     Decoder
	threshold float64
}

func (d *failingDecoder) GenotypeLen() int { return d.inner.GenotypeLen() }

func (d *failingDecoder) Decode(g []float64) (*model.Implementation, error) {
	if g[0] < d.threshold {
		return nil, errors.New("synthetic decode failure")
	}
	return d.inner.Decode(g)
}

// TestVerifyFailureIsErrorNotPanic is the regression test for the
// worker-goroutine panic: a decoder that produces an infeasible
// implementation must surface as an error from Run, not tear down the
// process.
func TestVerifyFailureIsErrorNotPanic(t *testing.T) {
	spec := smallSpec(t)
	gd, err := NewGreedyDecoder(spec)
	if err != nil {
		t.Fatal(err)
	}
	ex := NewExplorer(spec, &breakingDecoder{inner: gd, every: 10})
	ex.Verify = true
	res, err := ex.Run(moea.Options{PopSize: 16, Generations: 10, Seed: 1, Workers: 4})
	if err == nil {
		t.Fatal("broken decoder not reported")
	}
	if !strings.Contains(err.Error(), "infeasible") {
		t.Fatalf("unexpected error: %v", err)
	}
	if res != nil {
		t.Fatal("failed run returned a result")
	}
	// The explorer must be reusable after a failed run.
	ex2 := NewExplorer(spec, gd)
	ex2.Verify = true
	if _, err := ex2.Run(moea.Options{PopSize: 16, Generations: 2, Seed: 1}); err != nil {
		t.Fatalf("explorer not reusable: %v", err)
	}
}

// TestDecodeFailurePenaltyFinite: decode failures get the finite
// worst-case penalty (not ±Inf), real solutions still dominate them,
// and nothing NaN-poisons the run.
func TestDecodeFailurePenaltyFinite(t *testing.T) {
	spec := smallSpec(t)
	w := objective.WorstCase(spec)
	for _, v := range []float64{w.CostTotal, w.TestQuality, w.ShutOffMS} {
		if math.IsInf(v, 0) || math.IsNaN(v) {
			t.Fatalf("worst-case penalty not finite: %+v", w)
		}
	}
	gd, err := NewGreedyDecoder(spec)
	if err != nil {
		t.Fatal(err)
	}
	ex := NewExplorer(spec, &failingDecoder{inner: gd, threshold: 0.5})
	res, err := ex.Run(moea.Options{PopSize: 16, Generations: 8, Seed: 3, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.DecodeFailures == 0 {
		t.Fatal("synthetic failures not counted")
	}
	if len(res.Solutions) == 0 {
		t.Fatal("no real solutions survived alongside penalized failures")
	}
	for _, s := range res.Solutions {
		if s.Impl == nil {
			t.Fatal("penalty individual leaked into the solution set")
		}
		if math.IsNaN(s.Objectives.CostTotal) || math.IsNaN(s.Objectives.TestQuality) {
			t.Fatalf("NaN objectives: %+v", s.Objectives)
		}
		// Any decoded solution costs less than the all-worst penalty bound.
		if s.Objectives.CostTotal > w.CostTotal {
			t.Fatalf("solution cost %v exceeds worst-case bound %v", s.Objectives.CostTotal, w.CostTotal)
		}
	}
}

// solutionKey flattens a solution for byte-exact front comparison.
func solutionKey(s Solution) [3]float64 {
	return [3]float64{s.Objectives.CostTotal, s.Objectives.TestQuality, s.Objectives.ShutOffMS}
}

func fronts(res *Result) [][3]float64 {
	out := make([][3]float64, len(res.Solutions))
	for i, s := range res.Solutions {
		out[i] = solutionKey(s)
	}
	return out
}

// TestExplorerCheckpointResume drives the whole stack the way cmd/eedse
// does: periodic checkpoints to a file, resume from the last one, and a
// byte-identical final front versus the uninterrupted run.
func TestExplorerCheckpointResume(t *testing.T) {
	spec := smallSpec(t)
	gd, err := NewGreedyDecoder(spec)
	if err != nil {
		t.Fatal(err)
	}
	opt := moea.Options{PopSize: 16, Generations: 6, Seed: 5, Workers: 4}

	ref, err := NewExplorer(spec, gd).Run(opt)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "cp.json")
	periodic := opt
	periodic.CheckpointEvery = 2
	periodic.OnCheckpoint = func(cp *moea.IslandCheckpoint) error { return cp.WriteFile(path) }
	if _, err := NewExplorer(spec, gd).RunContext(context.Background(), periodic); err != nil {
		t.Fatal(err)
	}
	cp, err := moea.ReadIslandCheckpointFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if cp.States[0].NextGeneration != 4 {
		t.Fatalf("last periodic checkpoint at generation %d, want 4", cp.States[0].NextGeneration)
	}
	resumed := opt
	resumed.Resume = cp
	got, err := NewExplorer(spec, gd).RunContext(context.Background(), resumed)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fronts(got), fronts(ref)) {
		t.Fatal("resumed front differs from uninterrupted run")
	}
	if got.Evaluations != ref.Evaluations {
		t.Fatalf("resumed evaluations = %d, want %d", got.Evaluations, ref.Evaluations)
	}
}

// TestExplorerCancellation: a cancelled exploration returns the partial
// front with context.Canceled and writes a final checkpoint.
func TestExplorerCancellation(t *testing.T) {
	spec := smallSpec(t)
	gd, err := NewGreedyDecoder(spec)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	path := filepath.Join(t.TempDir(), "cp.json")
	n := 0
	ex := NewExplorer(spec, gd)
	ex.OnProgress = func(Progress) {
		if n++; n == 2 {
			cancel()
		}
	}
	res, err := ex.RunContext(ctx, moea.Options{PopSize: 16, Generations: 1000, Seed: 1, Workers: 4,
		OnCheckpoint: func(cp *moea.IslandCheckpoint) error { return cp.WriteFile(path) }})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil || len(res.Solutions) == 0 {
		t.Fatal("no partial front on cancellation")
	}
	cp, err := moea.ReadIslandCheckpointFile(path)
	if err != nil {
		t.Fatalf("no final checkpoint on cancellation: %v", err)
	}
	if cp.States[0].NextGeneration != 2 {
		t.Fatalf("final checkpoint resumes at generation %d, want 2", cp.States[0].NextGeneration)
	}
}

// TestProgressTelemetrySample checks the explorer-level sample fields,
// including the solver counters of the SAT decoder.
func TestProgressTelemetrySample(t *testing.T) {
	spec := smallSpec(t)
	sd, err := NewSATDecoder(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	ex := NewExplorer(spec, sd)
	var samples []Progress
	ex.OnProgress = func(p Progress) { samples = append(samples, p) }
	if _, err := ex.RunContext(context.Background(), moea.Options{PopSize: 8, Generations: 3, Seed: 2}); err != nil {
		t.Fatal(err)
	}
	if len(samples) != 3 {
		t.Fatalf("got %d samples, want 3", len(samples))
	}
	last := samples[len(samples)-1]
	if last.Evaluations != 8+8*3 {
		t.Fatalf("evaluations = %d", last.Evaluations)
	}
	if last.ArchiveSize == 0 {
		t.Fatal("empty archive in telemetry")
	}
	if math.IsNaN(last.Hypervolume) || last.Hypervolume <= 0 {
		t.Fatalf("hypervolume = %v", last.Hypervolume)
	}
	if last.SolverPropagations == 0 {
		t.Fatal("SAT decoder reported no solver propagations")
	}
	if last.EvalsPerSec < 0 || last.Elapsed <= 0 {
		t.Fatalf("throughput sample: %v evals/s over %v", last.EvalsPerSec, last.Elapsed)
	}
}
