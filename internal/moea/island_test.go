package moea

import (
	"context"
	"encoding/json"
	"errors"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func archivesEqual(t *testing.T, a, b []*Individual, label string) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: archive size %d vs %d", label, len(a), len(b))
	}
	for i := range a {
		if !equalObjectives(a[i].Objectives, b[i].Objectives) {
			t.Fatalf("%s: archive[%d] = %v vs %v", label, i, a[i].Objectives, b[i].Objectives)
		}
		for j := range a[i].Genotype {
			if a[i].Genotype[j] != b[i].Genotype[j] {
				t.Fatalf("%s: archive[%d] genotype differs at gene %d", label, i, j)
			}
		}
	}
}

// TestIslandsDeterministicAcrossWorkers is the island acceptance gate:
// for a fixed (seed, islands, migration) tuple the merged front must be
// bit-identical at every worker count.
func TestIslandsDeterministicAcrossWorkers(t *testing.T) {
	p := zdt1{n: 10}
	var ref *Result
	for _, w := range []int{1, 2, 4, 8} {
		opt := Options{PopSize: 16, Generations: 20, Seed: 5, Workers: w, Islands: 3, MigrateEvery: 5, Migrants: 3}
		res, err := Run(context.Background(), p, opt)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if ref == nil {
			ref = res
			continue
		}
		archivesEqual(t, ref.Archive, res.Archive, "worker sweep")
		if ref.Evaluations != res.Evaluations {
			t.Fatalf("workers=%d: evaluations %d, want %d", w, res.Evaluations, ref.Evaluations)
		}
	}
}

// TestIslandsMigrationChangesSearch: migration must actually couple the
// islands — disabling it (by pushing the epoch past the budget) must
// yield a different search trajectory than migrating every 5
// generations for at least one island count/seed combination.
func TestIslandsMigrationChangesSearch(t *testing.T) {
	p := zdt1{n: 10}
	opt := Options{PopSize: 16, Generations: 30, Seed: 3, Islands: 4, MigrateEvery: 5, Migrants: 4}
	with, err := Run(context.Background(), p, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.MigrateEvery = 30
	without, err := Run(context.Background(), p, opt)
	if err != nil {
		t.Fatal(err)
	}
	same := len(with.Archive) == len(without.Archive)
	if same {
		for i := range with.Archive {
			if !equalObjectives(with.Archive[i].Objectives, without.Archive[i].Objectives) {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("migration had no effect on the merged front")
	}
}

// TestIslandCheckpointResume: resuming a campaign from any emitted
// island checkpoint must reproduce the uninterrupted merged front bit
// for bit, including across a worker-count change — for checkpoints at
// the migration barriers and for a period that does not divide the
// epoch length, so that snapshots fall mid-epoch.
func TestIslandCheckpointResume(t *testing.T) {
	p := zdt1{n: 10}
	for _, tc := range []struct {
		migrate, every int
		want           []int
	}{
		{5, 5, []int{5, 10, 15}},
		{4, 3, []int{3, 6, 9, 12, 15, 18}},
	} {
		opt := Options{PopSize: 16, Generations: 20, Seed: 11, Workers: 2, Islands: 3, MigrateEvery: tc.migrate, Migrants: 2}
		full, cps := runCapturing(t, p, opt, tc.every)
		var gens []int
		for _, cp := range cps {
			gens = append(gens, cp.States[0].NextGeneration)
		}
		if !reflect.DeepEqual(gens, tc.want) {
			t.Fatalf("migrate %d, checkpoint every %d: checkpoints at generations %v, want %v", tc.migrate, tc.every, gens, tc.want)
		}
		path := filepath.Join(t.TempDir(), "island-cp.json")
		for i, cp := range cps {
			if err := cp.WriteFile(path); err != nil {
				t.Fatal(err)
			}
			loaded, err := ReadIslandCheckpointFile(path)
			if err != nil {
				t.Fatal(err)
			}
			resumeOpt := opt
			resumeOpt.Workers = 4 // resume on a different worker count
			resumeOpt.Resume = loaded
			res, err := Run(context.Background(), p, resumeOpt)
			if err != nil {
				t.Fatalf("resume from checkpoint %d: %v", i, err)
			}
			archivesEqual(t, full.Archive, res.Archive, "resumed campaign")
			if res.Evaluations != full.Evaluations {
				t.Fatalf("resume from checkpoint %d: evaluations %d, want %d", i, res.Evaluations, full.Evaluations)
			}
		}
	}
}

// runCapturing runs the campaign uninterrupted and once more with a
// checkpoint every `every` generations, returning the uninterrupted
// result and the captured checkpoints. The capturing run's front must
// equal the uninterrupted one: checkpointing is observational.
func runCapturing(t *testing.T, p Problem, opt Options, every int) (*Result, []*IslandCheckpoint) {
	t.Helper()
	full, err := Run(context.Background(), p, opt)
	if err != nil {
		t.Fatal(err)
	}
	var cps []*IslandCheckpoint
	capture := opt
	capture.CheckpointEvery = every
	capture.OnCheckpoint = func(cp *IslandCheckpoint) error { cps = append(cps, cp); return nil }
	res, err := Run(context.Background(), p, capture)
	if err != nil {
		t.Fatal(err)
	}
	archivesEqual(t, full.Archive, res.Archive, "checkpointing run")
	return full, cps
}

// TestIslandCancellationCheckpointResume: a cancelled campaign emits a
// final checkpoint; resuming it completes to the uninterrupted front.
func TestIslandCancellationCheckpointResume(t *testing.T) {
	p := zdt1{n: 10}
	opt := Options{PopSize: 16, Generations: 12, Seed: 7, Islands: 2, MigrateEvery: 4, Migrants: 2}

	full, err := Run(context.Background(), p, opt)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	evals := 0
	counting := countingProblem{p: p, evals: &evals, cancelAt: 7 * 16, cancel: cancel}
	var final *IslandCheckpoint
	cancelOpt := opt
	cancelOpt.OnCheckpoint = func(cp *IslandCheckpoint) error { final = cp; return nil }
	_, err = Run(ctx, counting, cancelOpt)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if final == nil {
		t.Fatal("no final checkpoint on cancellation")
	}
	// Cancelled by island 0's generation-2 batch (2·16 initial + 5·16):
	// island 0 stands one generation ahead of island 1.
	if g0, g1 := final.States[0].NextGeneration, final.States[1].NextGeneration; g0 != 3 || g1 != 2 {
		t.Fatalf("final checkpoint at generations %d/%d, want 3/2", g0, g1)
	}

	resumeOpt := opt
	resumeOpt.Resume = final
	res, err := Run(context.Background(), p, resumeOpt)
	if err != nil {
		t.Fatal(err)
	}
	archivesEqual(t, full.Archive, res.Archive, "resume after cancellation")
}

// countingProblem cancels its context after a fixed number of
// evaluations, forcing a mid-epoch stop at an uneven island position.
type countingProblem struct {
	p        Problem
	evals    *int
	cancelAt int
	cancel   context.CancelFunc
}

func (c countingProblem) GenotypeLen() int { return c.p.GenotypeLen() }

func (c countingProblem) Evaluate(w int, g []float64) (Objectives, any) {
	*c.evals++
	if *c.evals == c.cancelAt {
		c.cancel()
	}
	return c.p.Evaluate(w, g)
}

func TestIslandSeedDerivation(t *testing.T) {
	if IslandSeed(42, 0) != 42 {
		t.Fatal("island 0 must keep the campaign seed")
	}
	seen := map[int64]bool{}
	for i := 0; i < 16; i++ {
		s := IslandSeed(42, i)
		if seen[s] {
			t.Fatalf("island seed collision at island %d", i)
		}
		seen[s] = true
	}
}

func TestSelectMigrantsSpansFront(t *testing.T) {
	var archive []*Individual
	for i := 0; i < 9; i++ {
		archive = append(archive, &Individual{Objectives: Objectives{float64(i), float64(8 - i)}})
	}
	m := selectMigrants(archive, 3)
	if len(m) != 3 {
		t.Fatalf("got %d migrants, want 3", len(m))
	}
	if m[0].Objectives[0] != 0 || m[1].Objectives[0] != 4 || m[2].Objectives[0] != 8 {
		t.Fatalf("migrants not evenly spaced: %v %v %v", m[0].Objectives, m[1].Objectives, m[2].Objectives)
	}
	if got := selectMigrants(archive, 1); len(got) != 1 || got[0].Objectives[0] != 0 {
		t.Fatalf("k=1 migrant = %v", got)
	}
	if got := selectMigrants(archive, 100); len(got) != len(archive) {
		t.Fatalf("k>len returned %d", len(got))
	}
	if got := selectMigrants(nil, 3); got != nil {
		t.Fatalf("empty archive returned %v", got)
	}
}

// TestIslandResumeValidation: topology mismatches are rejected instead
// of silently producing a different campaign.
func TestIslandResumeValidation(t *testing.T) {
	p := zdt1{n: 10}
	opt := Options{PopSize: 16, Generations: 12, Seed: 7, Islands: 2, MigrateEvery: 4, Migrants: 2}
	var cp *IslandCheckpoint
	capture := opt
	capture.CheckpointEvery = 4
	capture.OnCheckpoint = func(c *IslandCheckpoint) error { cp = c; return nil }
	if _, err := Run(context.Background(), p, capture); err != nil {
		t.Fatal(err)
	}
	if cp == nil {
		t.Fatal("no checkpoint captured")
	}
	bad := []struct {
		name string
		edit func(o *Options)
	}{
		{"islands", func(o *Options) { o.Islands = 3 }},
		{"migrate-every", func(o *Options) { o.MigrateEvery = 5 }},
		{"migrants", func(o *Options) { o.Migrants = 3 }},
		{"seed", func(o *Options) { o.Seed = 8 }},
	}
	for _, tc := range bad {
		ro := opt
		tc.edit(&ro)
		ro.Resume = cp
		if _, err := Run(context.Background(), p, ro); err == nil {
			t.Fatalf("%s mismatch accepted", tc.name)
		}
	}
}

// TestResumeRejectsBrokenIslandStates: a checkpoint with a null or
// foreign island state is corrupt. Run must refuse it rather than
// restart that island from scratch, and EpochStep must refuse it rather
// than dereference the missing state.
func TestResumeRejectsBrokenIslandStates(t *testing.T) {
	p := zdt1{n: 10}
	opt := Options{PopSize: 8, Generations: 8, Seed: 2, Islands: 3, MigrateEvery: 4, Migrants: 1}
	_, cps := runCapturing(t, p, opt, 4)
	valid, err := json.Marshal(cps[0])
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		edit func(c *IslandCheckpoint)
		want string
	}{
		{"null state", func(c *IslandCheckpoint) { c.States[1] = nil }, "missing state"},
		{"foreign seed", func(c *IslandCheckpoint) { c.States[2].Seed = c.States[1].Seed }, "seed"},
		{"population size", func(c *IslandCheckpoint) { c.States[1].PopSize = 10 }, "population"},
		{"generation budget", func(c *IslandCheckpoint) { c.States[2].Generations = 9 }, "generations"},
	}
	for _, tc := range cases {
		cp := &IslandCheckpoint{}
		if err := json.Unmarshal(valid, cp); err != nil {
			t.Fatal(err)
		}
		tc.edit(cp)
		ro := opt
		ro.Resume = cp
		_, err := Run(context.Background(), p, ro)
		if !errors.Is(err, ErrCheckpointCorrupt) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Run err = %v, want ErrCheckpointCorrupt with %q", tc.name, err, tc.want)
		}
		_, err = EpochStep(context.Background(), p, opt, cp, 0, 3)
		if !errors.Is(err, ErrCheckpointCorrupt) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: EpochStep err = %v, want ErrCheckpointCorrupt with %q", tc.name, err, tc.want)
		}
	}
}
