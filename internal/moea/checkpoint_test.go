package moea

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

// flatFront flattens an archive into (genotype, objectives) for exact
// comparison; payloads are nil for the test problems.
func flatFront(archive []*Individual) [][]float64 {
	out := make([][]float64, 0, 2*len(archive))
	for _, ind := range archive {
		out = append(out, ind.Genotype, ind.Objectives)
	}
	return out
}

func TestPRNGStateRoundTrip(t *testing.T) {
	src := newPRNG(42)
	for i := 0; i < 1000; i++ {
		src.Uint64()
	}
	st := src.state()
	var want [16]uint64
	for i := range want {
		want[i] = src.Uint64()
	}
	dup := newPRNG(0)
	if err := dup.setState(st); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got := dup.Uint64(); got != want[i] {
			t.Fatalf("draw %d after restore = %d, want %d", i, got, want[i])
		}
	}
	if err := dup.setState([4]uint64{}); err == nil {
		t.Fatal("all-zero PRNG state accepted")
	}
}

func TestResumeValidation(t *testing.T) {
	p := zdt1{n: 6}
	var cp *IslandCheckpoint
	_, err := Run(context.Background(), p, Options{
		PopSize: 16, Generations: 6, Seed: 3,
		CheckpointEvery: 2,
		OnCheckpoint:    func(c *IslandCheckpoint) error { cp = c; return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	if cp == nil {
		t.Fatal("no periodic checkpoint emitted")
	}
	cases := []struct {
		name string
		opt  Options
	}{
		{"seed", Options{PopSize: 16, Generations: 6, Seed: 4}},
		{"popsize", Options{PopSize: 32, Generations: 6, Seed: 3}},
		{"generations", Options{PopSize: 16, Generations: 8, Seed: 3}},
		{"epsilon", Options{PopSize: 16, Generations: 6, Seed: 3, ArchiveEpsilon: []float64{0.1, 0.1}}},
	}
	for _, c := range cases {
		opt := c.opt
		opt.Resume = cp
		if _, err := Run(context.Background(), p, opt); err == nil {
			t.Errorf("%s mismatch accepted on resume", c.name)
		}
	}
	// Every stored island state is checked on its own bytes too.
	states := []struct {
		name string
		edit func(st *Checkpoint)
		want string
	}{
		{"population objectives", func(st *Checkpoint) { st.PopulationObjectives = st.PopulationObjectives[1:] }, "population objective vectors"},
		{"archive objective length", func(st *Checkpoint) { st.ArchiveObjectives[0] = st.ArchiveObjectives[0][1:] }, "objective vector of length 1"},
		{"genotype length", func(st *Checkpoint) { st.GenotypeLen = 7 }, "genotype length 7"},
		{"population genotype", func(st *Checkpoint) { st.Population[0] = st.Population[0][1:] }, "population genotype length"},
		{"archive genotype", func(st *Checkpoint) { st.Archive[0] = st.Archive[0][1:] }, "archive genotype length"},
	}
	for _, c := range states {
		data, err := json.Marshal(cp)
		if err != nil {
			t.Fatal(err)
		}
		bad := &IslandCheckpoint{}
		if err := json.Unmarshal(data, bad); err != nil {
			t.Fatal(err)
		}
		c.edit(bad.States[0])
		_, err = Run(context.Background(), p, Options{PopSize: 16, Generations: 6, Seed: 3, Resume: bad})
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want %q", c.name, err, c.want)
		}
	}
}

// TestNSGA2ResumeByteIdentical is the headline determinism property: a
// run checkpointed mid-flight and resumed — at any worker count —
// produces the same final front, byte for byte, as the uninterrupted
// run.
func TestNSGA2ResumeByteIdentical(t *testing.T) {
	p := zdt1{n: 10}
	base := Options{PopSize: 32, Generations: 12, Seed: 11}

	ref, err := Run(context.Background(), p, base)
	if err != nil {
		t.Fatal(err)
	}
	want := flatFront(ref.Archive)

	for _, workers := range []int{1, 4} {
		var mid *IslandCheckpoint
		opt := base
		opt.Workers = workers
		opt.CheckpointEvery = 5
		opt.OnCheckpoint = func(c *IslandCheckpoint) error {
			if mid == nil {
				mid = c // keep the first (generation 5) snapshot
			}
			return nil
		}
		if _, err := Run(context.Background(), p, opt); err != nil {
			t.Fatal(err)
		}
		if mid == nil || mid.States[0].NextGeneration != 5 {
			t.Fatalf("workers=%d: expected a checkpoint at generation 5, got %+v", workers, mid)
		}

		res := base
		res.Workers = workers
		res.Resume = mid
		got, err := Run(context.Background(), p, res)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(flatFront(got.Archive), want) {
			t.Errorf("workers=%d: resumed front differs from uninterrupted run", workers)
		}
		if got.Evaluations != ref.Evaluations {
			t.Errorf("workers=%d: resumed evaluations = %d, want %d",
				workers, got.Evaluations, ref.Evaluations)
		}
	}
}

// TestRandomSearchDeterministicAcrossWorkers: random search draws its
// genotypes on one PRNG stream and folds each chunk in order, so the
// archive — genotypes and objectives — is identical at any worker count.
func TestRandomSearchDeterministicAcrossWorkers(t *testing.T) {
	p := zdt1{n: 10}
	var want [][]float64
	for _, workers := range []int{1, 4} {
		res, err := RandomSearch(context.Background(), p, RandomOptions{Evals: 1200, Seed: 5, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if res.Evaluations != 1200 {
			t.Fatalf("workers=%d: evaluations = %d, want 1200", workers, res.Evaluations)
		}
		got := flatFront(res.Archive)
		if want == nil {
			want = got
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: archive differs from workers=1", workers)
		}
	}
}

// TestCancellationPartialResult: cancelling mid-run stops at the next
// generation boundary, emits a final checkpoint, returns the partial
// archive with ctx.Err(), and leaks no worker goroutines.
func TestCancellationPartialResult(t *testing.T) {
	p := zdt1{n: 10}
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var final *IslandCheckpoint
	opt := Options{
		PopSize: 32, Generations: 1000, Seed: 2, Workers: 4,
		OnGeneration: func(gen int, _ []*Individual) {
			if gen == 3 {
				cancel()
			}
		},
		OnCheckpoint: func(c *IslandCheckpoint) error { final = c; return nil },
	}
	res, err := Run(ctx, p, opt)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil || len(res.Archive) == 0 {
		t.Fatal("no partial result on cancellation")
	}
	if final == nil {
		t.Fatal("no final checkpoint on cancellation")
	}
	if final.States[0].NextGeneration != 4 {
		t.Fatalf("final checkpoint resumes at generation %d, want 4", final.States[0].NextGeneration)
	}
	// The cancelled run must be resumable to the full-run front.
	res2 := Options{PopSize: 32, Generations: 1000, Seed: 2}
	res2.Resume = final
	// Resuming 996 more generations is slow; instead verify the snapshot
	// is self-consistent and accepted.
	res2.Generations = 1000
	ctx2, cancel2 := context.WithCancel(context.Background())
	cancel2()
	if _, err := Run(ctx2, p, res2); err != context.Canceled {
		t.Fatalf("resume from cancellation checkpoint rejected: %v", err)
	}

	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("goroutine leak after cancellation: %d > %d", n, before)
	}
}

// TestRandomCancellation: cancelling random search stops at the next
// chunk boundary and returns the partial archive with ctx.Err(),
// leaking no worker goroutines.
func TestRandomCancellation(t *testing.T) {
	p := zdt1{n: 8}
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	n := 0
	res, err := RandomSearch(ctx, p, RandomOptions{
		Evals: 1 << 30, Seed: 9, Workers: 4,
		OnProgress: func(Progress) {
			if n++; n == 3 {
				cancel()
			}
		},
	})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil || len(res.Archive) == 0 {
		t.Fatal("no partial result on cancellation")
	}
	if res.Evaluations != 3*randomChunk {
		t.Fatalf("partial run evaluated %d genotypes, want %d", res.Evaluations, 3*randomChunk)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("goroutine leak after cancellation: %d > %d", n, before)
	}
}

// TestProgressTelemetry: one sample per generation, for a single
// population and for an island campaign (summed evaluations) alike.
func TestProgressTelemetry(t *testing.T) {
	p := zdt1{n: 8}
	for _, islands := range []int{1, 3} {
		var samples []Progress
		_, err := Run(context.Background(), p, Options{
			PopSize: 16, Generations: 5, Seed: 1, Islands: islands, MigrateEvery: 2,
			OnProgress: func(pr Progress) { samples = append(samples, pr) },
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(samples) != 5 {
			t.Fatalf("islands=%d: got %d progress samples, want 5", islands, len(samples))
		}
		for i, s := range samples {
			if s.Generation != i || s.Generations != 5 {
				t.Fatalf("sample %d: generation %d/%d", i, s.Generation, s.Generations)
			}
			if s.Evaluations != islands*(16+16*(i+1)) {
				t.Fatalf("islands=%d sample %d: evaluations = %d", islands, i, s.Evaluations)
			}
			if s.RunEvaluations != s.Evaluations {
				t.Fatalf("sample %d: run evaluations %d != %d on a fresh run", i, s.RunEvaluations, s.Evaluations)
			}
			if len(s.Archive) == 0 || s.Elapsed < 0 {
				t.Fatalf("sample %d: empty archive or negative elapsed", i)
			}
		}
	}
}

// TestCrowdingRejectsNonFiniteSpan guards the Inf−Inf fix: a front
// containing the penalty corner (formerly ±Inf objectives) must not
// poison crowding distances with NaN.
func TestCrowdingRejectsNonFiniteSpan(t *testing.T) {
	front := []*Individual{
		{Objectives: Objectives{0, math.Inf(1)}},
		{Objectives: Objectives{1, 5}},
		{Objectives: Objectives{2, 1}},
	}
	assignCrowding(front)
	for i, ind := range front {
		if math.IsNaN(ind.crowding) {
			t.Fatalf("individual %d: crowding is NaN", i)
		}
	}
}

func TestAdditiveEpsilonInfSafe(t *testing.T) {
	inf := math.Inf(1)
	approx := []Objectives{{inf, 0}}
	ref := []Objectives{{inf, 0}}
	if d := AdditiveEpsilon(approx, ref); math.IsNaN(d) {
		t.Fatal("AdditiveEpsilon produced NaN on matching Inf coordinates")
	}
}

// TestRestoreEvaluatesOnlyOffspring pins the restore contract: a
// checkpoint carries every member's objective vector, so a resumed Run
// and an EpochStep from a full checkpoint evaluate exactly the
// offspring they breed, and MergeIslandCheckpoint evaluates nothing.
func TestRestoreEvaluatesOnlyOffspring(t *testing.T) {
	p := zdt1{n: 10}
	opt := Options{PopSize: 16, Generations: 12, Seed: 3, Islands: 3, MigrateEvery: 4, Migrants: 2}
	full, cps := runCapturing(t, p, opt, 5) // checkpoints at generations 5 and 10
	evals := 0
	counting := countingProblem{p: p, evals: &evals}

	ro := opt
	ro.Resume = cps[0]
	res, err := Run(context.Background(), counting, ro)
	if err != nil {
		t.Fatal(err)
	}
	if want := opt.Islands * (opt.Generations - 5) * opt.PopSize; evals != want {
		t.Errorf("resumed Run evaluated %d genotypes, want the %d offspring of generations 5..11", evals, want)
	}
	archivesEqual(t, full.Archive, res.Archive, "resumed campaign")
	if res.Evaluations != full.Evaluations {
		t.Errorf("resumed evaluations %d, want %d", res.Evaluations, full.Evaluations)
	}

	// From generation 5 the epoch ends at the next migration, 8.
	evals = 0
	part, err := EpochStep(context.Background(), counting, opt, cps[0], 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * (8 - 5) * opt.PopSize; evals != want {
		t.Errorf("EpochStep evaluated %d genotypes, want the %d offspring of its two islands", evals, want)
	}
	if part.First != 1 || len(part.States) != 2 || part.States[0].NextGeneration != 8 {
		t.Errorf("EpochStep part covers [%d,%d) at generation %d, want [1,3) at 8",
			part.First, part.First+len(part.States), part.States[0].NextGeneration)
	}

	evals = 0
	if _, err := MergeIslandCheckpoint(context.Background(), counting, opt, cps[1]); err != nil {
		t.Fatal(err)
	}
	if evals != 0 {
		t.Errorf("MergeIslandCheckpoint evaluated %d genotypes, want 0", evals)
	}
}

// TestObjectiveBitsRoundTrip: stored objective vectors come back bit
// for bit through the checkpoint file, non-finite values, NaN payloads
// and signed zeros included, and only non-finite values are written as
// strings.
func TestObjectiveBitsRoundTrip(t *testing.T) {
	nan := math.Float64frombits(0x7ff8_0000_0000_0abc)
	obj := Objectives{math.Inf(1), math.Inf(-1), nan, math.Copysign(0, -1), 5e-324, math.MaxFloat64, 0.1}
	pop := []*Individual{{Genotype: []float64{0.5}, Objectives: obj}}
	data, err := json.Marshal(objectiveVectors(pop))
	if err != nil {
		t.Fatal(err)
	}
	const want = `[["0x7ff0000000000000","0xfff0000000000000","0x7ff8000000000abc",-0,5e-324,1.7976931348623157e+308,0.1]]`
	if string(data) != want {
		t.Fatalf("encoded %s, want %s", data, want)
	}
	var vecs []ExactVector
	if err := json.Unmarshal(data, &vecs); err != nil {
		t.Fatal(err)
	}
	got := restoreIndividuals(genotypes(pop), vecs)[0].Objectives
	for k := range obj {
		if math.Float64bits(got[k]) != math.Float64bits(obj[k]) {
			t.Errorf("objective %d: %#x, want %#x", k, math.Float64bits(got[k]), math.Float64bits(obj[k]))
		}
	}
	for _, bad := range []string{`["0x3ff0000000000000"]`, `["0x7ff"]`, `["+Inf"]`, `[1e400]`, `[true]`} {
		if err := json.Unmarshal([]byte(bad), &vecs); err == nil {
			t.Errorf("decoded %s, want an error", bad)
		}
	}
}

// TestReadIslandCheckpointV1Rejected: a version 1 file (genotypes
// only) is corrupt for this reader, and the error names its version; it
// is never evaluated back into shape.
func TestReadIslandCheckpointV1Rejected(t *testing.T) {
	v1 := fmt.Sprintf(`{"format":%q,"version":1,"seed":5,"islands":1,"migrate_every":5,"migrants":2,`+
		`"states":[{"format":"eedse-dse-checkpoint","version":1,"algorithm":"nsga2","seed":5,"genotype_len":2,`+
		`"rng":[1,2,3,4],"evaluations":40,"pop_size":2,"generations":10,"next_generation":5,`+
		`"population":[[0.25,0.5],[0.1,1e-9]],"archive":[[0.125,1]]}]}`, IslandCheckpointFormat)
	path := filepath.Join(t.TempDir(), "v1.json")
	if err := os.WriteFile(path, []byte(v1), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := ReadIslandCheckpointFile(path)
	if !errors.Is(err, ErrCheckpointCorrupt) || !strings.Contains(err.Error(), "unsupported version 1") {
		t.Fatalf("v1 checkpoint: err = %v, want ErrCheckpointCorrupt naming version 1", err)
	}
}

// TestReadIslandCheckpointV2Rejected: a version 2 file, whose objective
// vectors are math.Float64bits integers, is corrupt for this reader and
// the error names its version: its integers would decode as numbers
// without complaint, so only the version tells the formats apart.
func TestReadIslandCheckpointV2Rejected(t *testing.T) {
	v2 := fmt.Sprintf(`{"format":%q,"version":2,"seed":5,"islands":1,"migrate_every":5,"migrants":2,`+
		`"first":0,"states":[{"seed":5,"genotype_len":2,"rng":[1,2,3,4],"evaluations":40,`+
		`"pop_size":2,"generations":10,"next_generation":5,"population":[[0.25,0.5],[0.1,1e-9]],`+
		`"population_objectives":[[4598175219545276416,4611686018427387904],[4591870180066957722,4613937818241073152]],`+
		`"archive":[[0.125,1]],"archive_objectives":[[4593671619917905920,4607182418800017408]]}]}`, IslandCheckpointFormat)
	path := filepath.Join(t.TempDir(), "v2.json")
	if err := os.WriteFile(path, []byte(v2), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := ReadIslandCheckpointFile(path)
	if !errors.Is(err, ErrCheckpointCorrupt) || !strings.Contains(err.Error(), "unsupported version 2") {
		t.Fatalf("v2 checkpoint: err = %v, want ErrCheckpointCorrupt naming version 2", err)
	}
}

// extraObjective appends a constant objective to its problem's.
type extraObjective struct{ Problem }

func (e extraObjective) Evaluate(w int, g []float64) (Objectives, any) {
	obj, payload := e.Problem.Evaluate(w, g)
	return append(obj, 0), payload
}

// TestResumeRejectsOtherObjectiveCount: a checkpoint of a problem with
// a different number of objectives stops the resumed run with an error
// at its first step, instead of mixing vectors of two lengths.
func TestResumeRejectsOtherObjectiveCount(t *testing.T) {
	p := zdt1{n: 6}
	opt := Options{PopSize: 8, Generations: 4, Seed: 3}
	_, cps := runCapturing(t, p, opt, 2)
	ro := opt
	ro.Resume = cps[0]
	_, err := Run(context.Background(), extraObjective{p}, ro)
	if err == nil || !strings.Contains(err.Error(), "problem yields 3 objectives, the restored population has 2") {
		t.Fatalf("err = %v, want an objective-count mismatch", err)
	}
}
