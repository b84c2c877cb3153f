// Package shard orchestrates one island-model DSE campaign across
// multiple worker processes. Each migration epoch it spawns P epoch-step
// workers (eedse -epoch-step -island-shard k/P), every worker advancing
// a contiguous island subset by exactly one epoch from the same full
// campaign checkpoint; it then reads the partial island checkpoints the
// workers wrote (moea.ReadIslandCheckpointFile — one on-disk format for
// all island state), performs the synchronous ring migration centrally
// on their stored objective vectors (moea.MergeShards — the same
// lexicographic migrant selection, worst-replacement injection and
// island-order merge the in-process moea.Run uses), atomically writes
// the next full checkpoint as the recovery point, and loops.
//
// Determinism: for a fixed (seed, islands, migrate-every, migrants)
// tuple the campaign's checkpoint trajectory — and therefore the final
// merged front — is byte-identical to the in-process moea.Run campaign,
// at any process count and any per-process worker count. Killing the
// orchestrator mid-epoch loses nothing: the last written full
// checkpoint is the recovery point, a resumed run recomputes the
// interrupted epoch bit for bit, and workers write their checkpoints
// atomically so a stale or torn file can never be merged (a part's
// islands carry the generation they reached, and a part whose generation
// disagrees with the others is rejected).
package shard

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/moea"
	"repro/internal/obs"
)

// WorkerSpec describes one epoch-step worker invocation.
type WorkerSpec struct {
	// Shard/Procs are the worker's shard index and the epoch's total
	// shard count (the -island-shard k/P argument).
	Shard, Procs int
	// First/Count are the worker's contiguous island range, derived via
	// moea.ShardRange — informational for custom spawners.
	First, Count int
	// ResumePath is the full campaign checkpoint to step from; empty on
	// the epoch-0 bootstrap.
	ResumePath string
	// OutPath is where the worker must atomically write its partial
	// island checkpoint.
	OutPath string
}

// Epoch is the per-epoch telemetry sample passed to Config.OnEpoch
// after the epoch's shards merged and the recovery checkpoint hit disk.
type Epoch struct {
	// Index is the 0-based epoch count of this orchestrator run (resumed
	// runs count from 0 again).
	Index int
	// Boundary is the generation every island reached; Generations the
	// campaign budget.
	Boundary    int
	Generations int
	// Evaluations is the campaign-cumulative evaluation count.
	Evaluations int
	// Procs is the number of worker processes spawned for the epoch.
	Procs int
	// Elapsed is the wall-clock duration of the epoch (spawn to merge).
	Elapsed time.Duration
}

// Config configures an orchestrated campaign.
type Config struct {
	// Binary is the eedse executable to spawn workers from (typically
	// os.Executable()). Unused when Spawn is set.
	Binary string
	// Args are the campaign arguments every worker shares (spec,
	// decoder, budget, seed, island topology, -workers); the
	// orchestrator appends the worker-mode flags per shard.
	Args []string
	// Procs is the number of worker processes per epoch; it is capped at
	// Islands (an empty shard has nothing to step). The process count
	// never influences results, only wall-clock time.
	Procs int
	// Islands, MigrateEvery, Migrants mirror the campaign topology; they
	// cross-check every merged shard.
	Islands      int
	MigrateEvery int
	Migrants     int
	// WorkDir holds the per-epoch input checkpoint and shard files.
	WorkDir string
	// CheckpointPath is the full-campaign recovery point, atomically
	// rewritten after every merged epoch.
	CheckpointPath string
	// Resume, when non-nil, continues a campaign from a previously
	// written full checkpoint instead of bootstrapping epoch 0.
	Resume *moea.IslandCheckpoint
	// MaxEpochs stops the run after that many merged epochs (0 = run to
	// completion) — deterministic campaign chunking: the written
	// checkpoint resumes exactly where the run stopped.
	MaxEpochs int
	// Stderr receives the workers' stderr (nil discards it).
	Stderr io.Writer
	// OnEpoch, when non-nil, receives one telemetry sample per merged
	// epoch.
	OnEpoch func(Epoch)
	// Spawn runs one epoch-step worker and blocks until its shard is on
	// disk. Nil selects the default: exec Binary with Args plus the
	// worker-mode flags. Tests inject an in-process stepper here, and it
	// is the seam for launching workers on remote machines.
	Spawn func(ctx context.Context, w WorkerSpec) error
	// Obs, when non-nil, times each worker spawn and the central merge on
	// the observability tracer. Purely observational.
	Obs *obs.Tracer
}

// Run drives the campaign to completion (or MaxEpochs, or
// cancellation), returning the last full checkpoint and whether every
// island reached its generation budget. On cancellation it returns the
// last merged checkpoint (possibly nil if no epoch completed) together
// with ctx.Err(); the on-disk recovery point is always consistent.
func Run(ctx context.Context, cfg Config) (*moea.IslandCheckpoint, bool, error) {
	if cfg.Procs < 1 {
		return nil, false, fmt.Errorf("shard: procs must be positive, got %d", cfg.Procs)
	}
	if cfg.Islands < 1 {
		return nil, false, fmt.Errorf("shard: islands must be positive, got %d", cfg.Islands)
	}
	if cfg.WorkDir == "" || cfg.CheckpointPath == "" {
		return nil, false, errors.New("shard: WorkDir and CheckpointPath are required")
	}
	spawn := cfg.Spawn
	if spawn == nil {
		if cfg.Binary == "" {
			return nil, false, errors.New("shard: Binary is required without a custom Spawn")
		}
		spawn = cfg.spawnProcess
	}
	procs := cfg.Procs
	if procs > cfg.Islands {
		procs = cfg.Islands
	}
	if ctx == nil {
		ctx = context.Background()
	}

	cur := cfg.Resume
	for epoch := 0; ; epoch++ {
		if cur != nil && moea.CampaignDone(cur) {
			return cur, true, nil
		}
		if cfg.MaxEpochs > 0 && epoch >= cfg.MaxEpochs {
			return cur, false, nil
		}
		if err := ctx.Err(); err != nil {
			return cur, false, err
		}
		start := time.Now()

		resumePath := ""
		if cur != nil {
			resumePath = filepath.Join(cfg.WorkDir, "epoch-in.json")
			if err := cur.WriteFile(resumePath); err != nil {
				return cur, false, err
			}
		}

		specs := make([]WorkerSpec, procs)
		for k := range specs {
			first, count := moea.ShardRange(cfg.Islands, procs, k)
			specs[k] = WorkerSpec{
				Shard: k, Procs: procs,
				First: first, Count: count,
				ResumePath: resumePath,
				OutPath:    filepath.Join(cfg.WorkDir, fmt.Sprintf("shard-%d.json", k)),
			}
		}
		// One epoch, P workers: any failure cancels the siblings through
		// the shared context and surfaces the first error.
		epochCtx, cancel := context.WithCancel(ctx)
		var (
			wg   sync.WaitGroup
			mu   sync.Mutex
			werr error
		)
		for _, w := range specs {
			wg.Add(1)
			go func(w WorkerSpec) {
				defer wg.Done()
				sp := cfg.Obs.StartW(w.Shard, obs.StageShardSpawn)
				defer sp.End()
				if err := spawn(epochCtx, w); err != nil {
					mu.Lock()
					if werr == nil {
						werr = fmt.Errorf("shard: worker %d/%d (islands [%d,%d)): %w", w.Shard, w.Procs, w.First, w.First+w.Count, err)
					}
					mu.Unlock()
					cancel()
				}
			}(w)
		}
		wg.Wait()
		cancel()
		if werr != nil {
			if err := ctx.Err(); err != nil {
				// The run was cancelled; report that, not the collateral
				// worker kill.
				return cur, false, err
			}
			return cur, false, werr
		}

		msp := cfg.Obs.Start(obs.StageShardMerge)
		parts := make([]*moea.IslandCheckpoint, procs)
		for k, w := range specs {
			part, err := moea.ReadIslandCheckpointFile(w.OutPath)
			if err != nil {
				return cur, false, err
			}
			parts[k] = part
		}
		merged, done, err := moea.MergeShards(parts, moea.Options{
			Islands: cfg.Islands, MigrateEvery: cfg.MigrateEvery, Migrants: cfg.Migrants,
		})
		if err != nil {
			return cur, false, err
		}
		if err := merged.WriteFile(cfg.CheckpointPath); err != nil {
			return cur, false, err
		}
		msp.End()
		cur = merged

		if cfg.OnEpoch != nil {
			ep := Epoch{
				Index:   epoch,
				Procs:   procs,
				Elapsed: time.Since(start),
			}
			// A merge leaves every island at the epoch boundary.
			ep.Boundary, ep.Generations = merged.States[0].NextGeneration, merged.States[0].Generations
			for _, st := range merged.States {
				ep.Evaluations += st.Evaluations
			}
			cfg.OnEpoch(ep)
		}
		if done {
			return cur, true, nil
		}
	}
}

// spawnProcess is the default worker launcher: one eedse subprocess in
// epoch-step mode. The worker's stdout is discarded (worker mode prints
// nothing there); stderr forwards to Config.Stderr for diagnostics.
// Context cancellation kills the subprocess.
func (cfg Config) spawnProcess(ctx context.Context, w WorkerSpec) error {
	args := append([]string(nil), cfg.Args...)
	args = append(args,
		"-epoch-step",
		"-island-shard", fmt.Sprintf("%d/%d", w.Shard, w.Procs),
		"-shard-out", w.OutPath,
	)
	if w.ResumePath != "" {
		args = append(args, "-resume", w.ResumePath)
	}
	cmd := exec.CommandContext(ctx, cfg.Binary, args...)
	cmd.Stdout = io.Discard
	cmd.Stderr = cfg.Stderr
	if cmd.Stderr == nil {
		cmd.Stderr = io.Discard
	}
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("%s: %w", cfg.Binary, err)
	}
	return nil
}

// Bootstrap returns a Config with WorkDir defaulted to a fresh
// temporary directory when unset, plus the cleanup function for it.
// A mid-epoch kill leaks at most one temp directory; recovery never
// depends on WorkDir contents.
func Bootstrap(cfg Config) (Config, func(), error) {
	if cfg.WorkDir != "" {
		return cfg, func() {}, nil
	}
	dir, err := os.MkdirTemp("", "eedse-shard-*")
	if err != nil {
		return cfg, nil, err
	}
	cfg.WorkDir = dir
	return cfg, func() { os.RemoveAll(dir) }, nil
}
