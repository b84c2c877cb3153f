package shard

import (
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/moea"
)

// zdt1 is the standard two-objective benchmark (local copy — the moea
// test fixtures are package-private).
type zdt1 struct{ n int }

func (z zdt1) GenotypeLen() int { return z.n }

func (z zdt1) Evaluate(_ int, g []float64) (moea.Objectives, any) {
	f1 := g[0]
	s := 0.0
	for _, v := range g[1:] {
		s += v
	}
	gg := 1 + 9*s/float64(z.n-1)
	return moea.Objectives{f1, gg * (1 - math.Sqrt(f1/gg))}, nil
}

// inProcessSpawn returns a Spawn hook that performs the epoch step in
// this process — the worker body without the exec — so orchestrator
// logic is testable without building the binary.
func inProcessSpawn(p moea.Problem, opt moea.Options) func(context.Context, WorkerSpec) error {
	return func(ctx context.Context, w WorkerSpec) error {
		var full *moea.IslandCheckpoint
		if w.ResumePath != "" {
			var err error
			if full, err = moea.ReadIslandCheckpointFile(w.ResumePath); err != nil {
				return err
			}
		}
		sh, err := moea.EpochStep(ctx, p, opt, full, w.First, w.Count)
		if err != nil {
			return err
		}
		return sh.WriteFile(w.OutPath)
	}
}

func campaignConfig(t *testing.T, p moea.Problem, opt moea.Options, procs int) Config {
	t.Helper()
	dir := t.TempDir()
	return Config{
		Procs:          procs,
		Islands:        opt.Islands,
		MigrateEvery:   opt.MigrateEvery,
		Migrants:       opt.Migrants,
		WorkDir:        dir,
		CheckpointPath: filepath.Join(dir, "campaign.json"),
		Spawn:          inProcessSpawn(p, opt),
	}
}

func frontOf(t *testing.T, p moea.Problem, opt moea.Options, cp *moea.IslandCheckpoint) *moea.Result {
	t.Helper()
	res, err := moea.MergeIslandCheckpoint(context.Background(), p, opt, cp)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func frontsEqual(t *testing.T, a, b *moea.Result, label string) {
	t.Helper()
	if a.Evaluations != b.Evaluations {
		t.Fatalf("%s: evaluations %d vs %d", label, a.Evaluations, b.Evaluations)
	}
	if len(a.Archive) != len(b.Archive) {
		t.Fatalf("%s: front size %d vs %d", label, len(a.Archive), len(b.Archive))
	}
	for i := range a.Archive {
		ga, gb := a.Archive[i].Genotype, b.Archive[i].Genotype
		for j := range ga {
			if ga[j] != gb[j] {
				t.Fatalf("%s: archive[%d] genotype differs at gene %d", label, i, j)
			}
		}
	}
}

// TestRunMatchesInProcess: the orchestrated campaign must complete and
// reproduce the in-process moea.Run front exactly — at every process
// count, including procs > islands (capped to islands).
func TestRunMatchesInProcess(t *testing.T) {
	p := zdt1{n: 10}
	opt := moea.Options{PopSize: 16, Generations: 20, Seed: 5, Workers: 2, Islands: 3, MigrateEvery: 5, Migrants: 3}

	ref, err := moea.Run(context.Background(), p, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{1, 2, 3, 8} {
		cfg := campaignConfig(t, p, opt, procs)
		var epochs []Epoch
		cfg.OnEpoch = func(ep Epoch) { epochs = append(epochs, ep) }
		final, done, err := Run(context.Background(), cfg)
		if err != nil || !done {
			t.Fatalf("procs=%d: done=%v err=%v", procs, done, err)
		}
		frontsEqual(t, ref, frontOf(t, p, opt, final), "orchestrated front")
		wantProcs := procs
		if wantProcs > opt.Islands {
			wantProcs = opt.Islands
		}
		for i, ep := range epochs {
			if ep.Index != i || ep.Procs != wantProcs || ep.Generations != opt.Generations {
				t.Fatalf("procs=%d epoch %d: telemetry %+v", procs, i, ep)
			}
			if i > 0 && (ep.Boundary <= epochs[i-1].Boundary || ep.Evaluations <= epochs[i-1].Evaluations) {
				t.Fatalf("procs=%d epoch %d: boundary/evals not monotone: %+v after %+v", procs, i, ep, epochs[i-1])
			}
		}
		if len(epochs) == 0 || epochs[len(epochs)-1].Boundary != opt.Generations {
			t.Fatalf("procs=%d: final epoch telemetry missing or short: %+v", procs, epochs)
		}
		// The on-disk recovery point is the completed campaign.
		loaded, err := moea.ReadIslandCheckpointFile(cfg.CheckpointPath)
		if err != nil {
			t.Fatal(err)
		}
		if !moea.CampaignDone(loaded) {
			t.Fatalf("procs=%d: written checkpoint not complete", procs)
		}
	}
}

// TestRunMaxEpochsResume: MaxEpochs stops deterministically; resuming
// from the written checkpoint — at a different process count — finishes
// the campaign to the identical front. This is the programmatic version
// of the kill-and-resume smoke test.
func TestRunMaxEpochsResume(t *testing.T) {
	p := zdt1{n: 10}
	opt := moea.Options{PopSize: 16, Generations: 20, Seed: 9, Workers: 2, Islands: 3, MigrateEvery: 5, Migrants: 2}

	ref, err := moea.Run(context.Background(), p, opt)
	if err != nil {
		t.Fatal(err)
	}

	cfg := campaignConfig(t, p, opt, 2)
	cfg.MaxEpochs = 2
	mid, done, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if done || mid == nil {
		t.Fatalf("done=%v mid=%v after MaxEpochs=2", done, mid)
	}

	resumed, err := moea.ReadIslandCheckpointFile(cfg.CheckpointPath)
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := campaignConfig(t, p, opt, 3)
	cfg2.Resume = resumed
	final, done, err := Run(context.Background(), cfg2)
	if err != nil || !done {
		t.Fatalf("resume: done=%v err=%v", done, err)
	}
	frontsEqual(t, ref, frontOf(t, p, opt, final), "resumed campaign")

	// Resuming a finished campaign is a no-op returning it unchanged.
	cfg3 := campaignConfig(t, p, opt, 2)
	cfg3.Resume = final
	again, done, err := Run(context.Background(), cfg3)
	if err != nil || !done || again != final {
		t.Fatalf("re-run of finished campaign: done=%v err=%v", done, err)
	}
}

// TestRunCancellation: cancelling the orchestrator surfaces ctx.Err()
// and keeps the last merged checkpoint consistent; resuming completes
// to the identical front (kill-mid-campaign recovery).
func TestRunCancellation(t *testing.T) {
	p := zdt1{n: 10}
	opt := moea.Options{PopSize: 16, Generations: 20, Seed: 13, Workers: 2, Islands: 2, MigrateEvery: 5, Migrants: 2}

	ref, err := moea.Run(context.Background(), p, opt)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cfg := campaignConfig(t, p, opt, 2)
	cfg.OnEpoch = func(ep Epoch) {
		if ep.Index == 0 {
			cancel() // cancel between epochs: next loop iteration must stop
		}
	}
	mid, done, err := Run(ctx, cfg)
	if !errors.Is(err, context.Canceled) || done {
		t.Fatalf("cancelled run: done=%v err=%v", done, err)
	}
	if mid == nil {
		t.Fatal("cancelled run lost the merged checkpoint")
	}

	cfg2 := campaignConfig(t, p, opt, 2)
	cfg2.Resume = mid
	final, done, err := Run(context.Background(), cfg2)
	if err != nil || !done {
		t.Fatalf("resume after cancel: done=%v err=%v", done, err)
	}
	frontsEqual(t, ref, frontOf(t, p, opt, final), "resume after cancellation")

	// Cancelling mid-epoch (inside the workers) must also surface
	// ctx.Err(), not the collateral worker failure.
	ctx2, cancel2 := context.WithCancel(context.Background())
	var spawned atomic.Int32
	cfg3 := campaignConfig(t, p, opt, 2)
	inner := cfg3.Spawn
	cfg3.Spawn = func(ctx context.Context, w WorkerSpec) error {
		if spawned.Add(1) == 2 {
			cancel2()
		}
		return inner(ctx, w)
	}
	_, done, err = Run(ctx2, cfg3)
	if !errors.Is(err, context.Canceled) || done {
		t.Fatalf("mid-epoch cancel: done=%v err=%v", done, err)
	}
	cancel2()
}

// TestRunWorkerFailure: a failing worker aborts the epoch with a
// diagnostic naming the shard, and the campaign state stays at the last
// merged checkpoint.
func TestRunWorkerFailure(t *testing.T) {
	p := zdt1{n: 10}
	opt := moea.Options{PopSize: 8, Generations: 8, Seed: 1, Islands: 2, MigrateEvery: 4, Migrants: 1}

	boom := errors.New("boom")
	cfg := campaignConfig(t, p, opt, 2)
	inner := cfg.Spawn
	cfg.Spawn = func(ctx context.Context, w WorkerSpec) error {
		if w.Shard == 1 {
			return boom
		}
		return inner(ctx, w)
	}
	cur, done, err := Run(context.Background(), cfg)
	if !errors.Is(err, boom) || done || cur != nil {
		t.Fatalf("worker failure: cur=%v done=%v err=%v", cur, done, err)
	}
	if !strings.Contains(err.Error(), "worker 1/2") {
		t.Fatalf("error does not name the failing shard: %v", err)
	}
}

// TestRunValidation: misconfiguration is rejected before any worker is
// spawned.
func TestRunValidation(t *testing.T) {
	base := Config{
		Procs: 1, Islands: 1, MigrateEvery: 5, Migrants: 1,
		WorkDir: t.TempDir(), CheckpointPath: filepath.Join(t.TempDir(), "cp.json"),
		Spawn: func(ctx context.Context, w WorkerSpec) error { return nil },
	}
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"procs", func(c *Config) { c.Procs = 0 }},
		{"islands", func(c *Config) { c.Islands = 0 }},
		{"workdir", func(c *Config) { c.WorkDir = "" }},
		{"checkpoint path", func(c *Config) { c.CheckpointPath = "" }},
		{"binary", func(c *Config) { c.Spawn = nil }},
	}
	for _, tc := range cases {
		cfg := base
		tc.mutate(&cfg)
		if _, _, err := Run(context.Background(), cfg); err == nil {
			t.Fatalf("%s: invalid config accepted", tc.name)
		}
	}
}

// TestBootstrapWorkDir: Bootstrap leaves an explicit WorkDir alone and
// creates (then removes) a temporary one otherwise.
func TestBootstrapWorkDir(t *testing.T) {
	dir := t.TempDir()
	cfg, cleanup, err := Bootstrap(Config{WorkDir: dir})
	if err != nil || cfg.WorkDir != dir {
		t.Fatalf("explicit workdir: %q err=%v", cfg.WorkDir, err)
	}
	cleanup()
	if _, err := os.Stat(dir); err != nil {
		t.Fatal("cleanup removed an explicit workdir")
	}

	cfg, cleanup, err = Bootstrap(Config{})
	if err != nil || cfg.WorkDir == "" {
		t.Fatalf("default workdir: %q err=%v", cfg.WorkDir, err)
	}
	if _, err := os.Stat(cfg.WorkDir); err != nil {
		t.Fatalf("default workdir missing: %v", err)
	}
	cleanup()
	if _, err := os.Stat(cfg.WorkDir); !os.IsNotExist(err) {
		t.Fatalf("cleanup left the temp workdir: %v", err)
	}
}

// TestCorruptWorkerOutput: a worker that reports success but leaves a
// torn or garbage shard file must fail the epoch with the typed
// corruption error naming the file — never a JSON panic, never a
// silent restart from scratch.
func TestCorruptWorkerOutput(t *testing.T) {
	p := zdt1{n: 10}
	opt := moea.Options{PopSize: 8, Generations: 8, Seed: 1, Islands: 2, MigrateEvery: 4, Migrants: 1}

	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"garbage", []byte("\x00\xff not json at all")},
		{"truncated", []byte(`{"format":"eedse-dse-island-shard","vers`)},
		{"empty", nil},
		{"wrong type", []byte(`{"format":"something-else","version":1}`)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := campaignConfig(t, p, opt, 2)
			inner := cfg.Spawn
			var corrupted string
			cfg.Spawn = func(ctx context.Context, w WorkerSpec) error {
				if w.Shard == 1 {
					corrupted = w.OutPath
					return os.WriteFile(w.OutPath, tc.data, 0o644)
				}
				return inner(ctx, w)
			}
			cur, done, err := Run(context.Background(), cfg)
			if err == nil || done || cur != nil {
				t.Fatalf("corrupt shard accepted: cur=%v done=%v err=%v", cur, done, err)
			}
			if !errors.Is(err, moea.ErrCheckpointCorrupt) {
				t.Fatalf("not typed as checkpoint corruption: %v", err)
			}
			if !strings.Contains(err.Error(), corrupted) {
				t.Fatalf("error does not name the corrupt file %q: %v", corrupted, err)
			}
		})
	}
}

// TestCorruptResumeCheckpoint: the campaign-level resume file gets the
// same treatment — corrupt is a typed, file-naming error distinct from
// missing (which the readers surface as fs.ErrNotExist, the signal to
// start fresh).
func TestCorruptResumeCheckpoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaign.json")
	if _, err := moea.ReadIslandCheckpointFile(path); err == nil || errors.Is(err, moea.ErrCheckpointCorrupt) {
		t.Fatalf("missing file must not read as corrupt: %v", err)
	}
	for _, data := range [][]byte{
		[]byte("{"),
		[]byte("\x7f\x45\x4c\x46"),
		{},
		[]byte(`{"format":"eedse-dse-checkpoint","version":1}`), // single-run format, not island
		[]byte(`{"format":"eedse-dse-island-checkpoint","version":99}`),
	} {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := moea.ReadIslandCheckpointFile(path)
		if !errors.Is(err, moea.ErrCheckpointCorrupt) {
			t.Fatalf("%q: not typed as corruption: %v", data, err)
		}
		if !strings.Contains(err.Error(), path) {
			t.Fatalf("error does not name the file: %v", err)
		}
	}
}
