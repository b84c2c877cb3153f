package moea

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"
	"time"

	"repro/internal/durable"
	"repro/internal/obs"
)

// ErrCheckpointCorrupt marks a checkpoint or shard file that exists
// but cannot be trusted — unparseable JSON, wrong format or version,
// or internally inconsistent state. Callers distinguish it (errors.Is)
// from a merely missing file: missing means start fresh, corrupt means
// stop and name the file rather than silently discarding progress.
var ErrCheckpointCorrupt = errors.New("checkpoint corrupt")

// Island checkpoint file format identifiers. The file embeds one
// standard Checkpoint (the PR 3 single-run format) per island, so every
// island's state is individually resumable with the existing machinery.
const (
	IslandCheckpointFormat  = "eedse-dse-island-checkpoint"
	IslandCheckpointVersion = 1
)

// IslandOptions configure an island-model NSGA-II campaign: N
// independent populations advancing in lock-step epochs of MigrateEvery
// generations, exchanging archive representatives on a fixed ring after
// every epoch, and merging their archives deterministically at the end.
type IslandOptions struct {
	// Islands is the number of independent populations (minimum 1). Each
	// island runs the base Options with a seed derived from (Seed,
	// island); island 0 uses the base seed unchanged, so a 1-island
	// campaign reproduces the plain Run front bit for bit.
	Islands int
	// MigrateEvery is the epoch length in generations between migrations
	// (default 10). Migration happens at every epoch boundary except the
	// final one.
	MigrateEvery int
	// Migrants is the number of archive representatives each island sends
	// to its ring successor per migration (default 4, capped at half the
	// receiving population).
	Migrants int
	// Resume restores the whole campaign from an island checkpoint. The
	// topology (islands, epoch length, migrant count) and every embedded
	// island state must match the options.
	Resume *IslandCheckpoint
	// OnCheckpoint, when non-nil, receives a campaign snapshot after
	// every migration barrier and once more when the context is
	// cancelled. A non-nil return aborts the run with that error.
	OnCheckpoint func(*IslandCheckpoint) error
	// OnProgress, when non-nil, receives one aggregated telemetry sample
	// per completed epoch: summed evaluation counts and the merged
	// archive of all islands.
	OnProgress func(Progress)
}

func (io IslandOptions) withDefaults() IslandOptions {
	if io.Islands < 1 {
		io.Islands = 1
	}
	if io.MigrateEvery <= 0 {
		io.MigrateEvery = 10
	}
	if io.Migrants <= 0 {
		io.Migrants = 4
	}
	return io
}

// IslandCheckpoint is a complete snapshot of an island campaign at a
// generation boundary. States holds each island's standard optimizer
// checkpoint in island order; a snapshot taken at a migration barrier
// stores the post-migration populations, so resuming proceeds straight
// into the next epoch without re-migrating.
type IslandCheckpoint struct {
	Format  string `json:"format"`
	Version int    `json:"version"`

	Seed         int64 `json:"seed"`
	Islands      int   `json:"islands"`
	MigrateEvery int   `json:"migrate_every"`
	Migrants     int   `json:"migrants"`

	States []*Checkpoint `json:"states"`
}

// check validates an island checkpoint against the campaign resuming it.
func (cp *IslandCheckpoint) check(opt Options, iopt IslandOptions) error {
	if cp.Format != IslandCheckpointFormat {
		return fmt.Errorf("moea: resume: not an island checkpoint file (format %q)", cp.Format)
	}
	if cp.Version != IslandCheckpointVersion {
		return fmt.Errorf("moea: resume: unsupported island checkpoint version %d (want %d)", cp.Version, IslandCheckpointVersion)
	}
	if cp.Islands != iopt.Islands {
		return fmt.Errorf("moea: resume: checkpoint has %d islands, run uses -islands %d", cp.Islands, iopt.Islands)
	}
	if cp.MigrateEvery != iopt.MigrateEvery {
		return fmt.Errorf("moea: resume: checkpoint migrates every %d generations, run every %d", cp.MigrateEvery, iopt.MigrateEvery)
	}
	if cp.Migrants != iopt.Migrants {
		return fmt.Errorf("moea: resume: checkpoint migrates %d individuals, run %d", cp.Migrants, iopt.Migrants)
	}
	if cp.Seed != opt.Seed {
		return fmt.Errorf("moea: resume: checkpoint seed %d does not match Seed %d", cp.Seed, opt.Seed)
	}
	if len(cp.States) != cp.Islands {
		return fmt.Errorf("moea: resume: corrupt island checkpoint: %d states for %d islands", len(cp.States), cp.Islands)
	}
	return nil
}

// WriteFile atomically writes the island checkpoint (see
// Checkpoint.WriteFile for the durability contract).
func (cp *IslandCheckpoint) WriteFile(path string) error {
	data, err := json.Marshal(cp)
	if err == nil {
		err = durable.WriteFileAtomic(durable.OSFS{}, path, data)
	}
	if err != nil {
		return fmt.Errorf("moea: island checkpoint: %w", err)
	}
	return nil
}

// ReadIslandCheckpointFile loads an island checkpoint written by
// WriteFile.
func ReadIslandCheckpointFile(path string) (*IslandCheckpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("moea: island checkpoint: %w", err)
	}
	cp := &IslandCheckpoint{}
	if err := json.Unmarshal(data, cp); err != nil {
		return nil, fmt.Errorf("moea: island checkpoint %s: %w: %v", path, ErrCheckpointCorrupt, err)
	}
	if cp.Format != IslandCheckpointFormat {
		return nil, fmt.Errorf("moea: island checkpoint %s: %w: not an island checkpoint file (format %q)", path, ErrCheckpointCorrupt, cp.Format)
	}
	if cp.Version != IslandCheckpointVersion {
		return nil, fmt.Errorf("moea: island checkpoint %s: %w: unsupported version %d (want %d)", path, ErrCheckpointCorrupt, cp.Version, IslandCheckpointVersion)
	}
	return cp, nil
}

// IslandSeed derives island i's PRNG seed from the campaign seed.
// Island 0 keeps the campaign seed, so a 1-island campaign is
// bit-identical to the plain run; the rest get decorrelated streams
// through a splitmix64 step.
func IslandSeed(seed int64, i int) int64 {
	if i == 0 {
		return seed
	}
	z := uint64(seed) + uint64(i)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// selectMigrants picks k representatives from an archive: the archive
// is ordered lexicographically by objective vector and sampled at
// evenly spaced positions, so the migrant set spans the front instead
// of clustering at one corner, and is a pure function of the archive
// contents (worker-count independent).
func selectMigrants(archive []*Individual, k int) []*Individual {
	if len(archive) == 0 || k <= 0 {
		return nil
	}
	sorted := append([]*Individual(nil), archive...)
	sort.SliceStable(sorted, func(a, b int) bool {
		oa, ob := sorted[a].Objectives, sorted[b].Objectives
		for i := range oa {
			if i >= len(ob) {
				break
			}
			if oa[i] != ob[i] {
				return oa[i] < ob[i]
			}
		}
		return len(oa) < len(ob)
	})
	if k >= len(sorted) {
		return sorted
	}
	if k == 1 {
		return sorted[:1]
	}
	out := make([]*Individual, 0, k)
	for j := 0; j < k; j++ {
		// Evenly spaced indices over [0, len-1], endpoints included;
		// strictly increasing because len(sorted) > k.
		out = append(out, sorted[j*(len(sorted)-1)/(k-1)])
	}
	return out
}

// migrateRing performs one synchronous ring migration over per-island
// population/archive slices: every island's migrant set is selected
// first (selectMigrants over its archive), then island i's migrants are
// injected into ring successor i+1 (injectMigrants worst-replacement),
// so the exchange is simultaneous and ring order cannot influence what
// is sent. Populations are mutated in place. The function is a pure
// transformation of (genotypes, objectives, order) — the in-process
// epoch loop and the orchestrator's central merge of worker shards call
// exactly this code, which is what keeps the multi-process campaign
// byte-identical to the in-process one.
func migrateRing(pops, archives [][]*Individual, migrants int) {
	n := len(pops)
	if n <= 1 {
		return
	}
	sel := make([][]*Individual, n)
	for i := range archives {
		sel[i] = selectMigrants(archives[i], migrants)
	}
	for i := range pops {
		injectMigrants(pops[i], sel[(i-1+n)%n])
	}
}

// mergeIslandArchives folds the island archives into one global
// non-dominated set. The fold visits islands in index order and each
// archive in its deterministic insertion order, so the merged front is
// a pure function of the per-island archives — independent of worker
// count and of which process hosted which island.
func mergeIslandArchives(states []*nsga2, eps []float64) []*Individual {
	var merged []*Individual
	for _, s := range states {
		merged = updateArchiveEps(merged, s.archive, eps)
	}
	return merged
}

// epochBoundary returns the generation every island advances to in the
// current epoch: the smallest MigrateEvery multiple strictly beyond the
// least-advanced island, capped at the generation budget. It is shared
// by the in-process driver and the process-sharded epoch step, so both
// compute identical epoch schedules from identical state.
func epochBoundary(minGen, migrateEvery, generations int) int {
	boundary := (minGen/migrateEvery + 1) * migrateEvery
	if boundary > generations {
		boundary = generations
	}
	return boundary
}

// buildIslandStates constructs the stepping optimizers for the
// contiguous island subset [first, first+count): each island runs the
// base options with its derived seed (IslandSeed) and no per-island
// callbacks — the campaign reports and checkpoints at the island level
// only. When resume is non-nil, island i restores from resume.States[i]
// (re-evaluating the stored genotypes exactly). opt must already carry
// defaults. Both the in-process campaign driver (RunIslands) and the
// process-sharded epoch step (EpochStep) build their islands here, so
// the two paths cannot drift apart.
func buildIslandStates(p Problem, opt Options, resume *IslandCheckpoint, first, count int, pool *evalPool) ([]*nsga2, error) {
	states := make([]*nsga2, count)
	for j := range states {
		i := first + j
		o := opt
		o.Seed = IslandSeed(opt.Seed, i)
		o.OnGeneration, o.OnProgress, o.OnCheckpoint = nil, nil, nil
		o.Resume = nil
		if resume != nil {
			o.Resume = resume.States[i]
		}
		s, err := newNSGA2(p, o, pool)
		if err != nil {
			return nil, fmt.Errorf("moea: island %d: %w", i, err)
		}
		states[j] = s
	}
	return states, nil
}

// snapshotIslands captures a full campaign checkpoint from in-memory
// island states (states must cover every island, in island order).
func snapshotIslands(states []*nsga2, opt Options, iopt IslandOptions) *IslandCheckpoint {
	cp := &IslandCheckpoint{
		Format:       IslandCheckpointFormat,
		Version:      IslandCheckpointVersion,
		Seed:         opt.Seed,
		Islands:      iopt.Islands,
		MigrateEvery: iopt.MigrateEvery,
		Migrants:     iopt.Migrants,
		States:       make([]*Checkpoint, len(states)),
	}
	for i, s := range states {
		cp.States[i] = s.snapshot()
	}
	return cp
}

// islandResult folds the island states into the campaign Result: merged
// archive (island order), summed evaluation counts, concatenated final
// populations.
func islandResult(states []*nsga2, eps []float64) *Result {
	res := &Result{Archive: mergeIslandArchives(states, eps)}
	for _, s := range states {
		res.Evaluations += s.evals
		res.FinalPopulation = append(res.FinalPopulation, s.pop...)
	}
	return res
}

// RunIslands executes an island-model NSGA-II campaign: iopt.Islands
// independent populations, each running the base Options with a derived
// seed, advancing in epochs of iopt.MigrateEvery generations. After
// every epoch (except the last) each island sends Migrants archive
// representatives to its ring successor, which replace the successor's
// worst individuals. All islands share one evaluation worker pool
// (opt.Workers goroutines total), so a campaign saturates the machine
// regardless of how generations distribute across islands.
//
// Determinism: for a fixed (Seed, Islands, MigrateEvery, Migrants)
// tuple the merged front is bit-identical at any worker count. Epoch
// barriers are synchronous and migration snapshots are taken before any
// injection, so ring order cannot leak into results.
//
// Cancellation is honored at generation boundaries: the campaign stops,
// emits a final island checkpoint through iopt.OnCheckpoint (if set),
// and returns the partial merged Result with ctx.Err(). Resuming from
// any emitted checkpoint continues to a byte-identical merged front.
func RunIslands(ctx context.Context, p Problem, opt Options, iopt IslandOptions) (*Result, error) {
	genLen := p.GenotypeLen()
	if genLen <= 0 {
		return nil, errEmptyGenotype
	}
	if ctx == nil {
		ctx = context.Background()
	}
	opt = opt.withDefaults(genLen)
	iopt = iopt.withDefaults()
	if iopt.Resume != nil {
		if err := iopt.Resume.check(opt, iopt); err != nil {
			return nil, err
		}
	}

	pool := newEvalPool(p, opt.Workers)
	defer pool.close()

	states, err := buildIslandStates(p, opt, iopt.Resume, 0, iopt.Islands, pool)
	if err != nil {
		return nil, err
	}

	snapshot := func() *IslandCheckpoint { return snapshotIslands(states, opt, iopt) }
	result := func() *Result { return islandResult(states, opt.ArchiveEpsilon) }
	start := time.Now()

	for {
		// The epoch boundary: the smallest MigrateEvery multiple strictly
		// beyond the least-advanced island, capped at the generation budget.
		// After a mid-epoch resume islands may sit at different generations;
		// the inner loop advances only those short of the boundary, which
		// reproduces the uninterrupted schedule exactly.
		minGen := opt.Generations
		for _, s := range states {
			if s.gen < minGen {
				minGen = s.gen
			}
		}
		if minGen >= opt.Generations {
			break
		}
		boundary := epochBoundary(minGen, iopt.MigrateEvery, opt.Generations)
		for _, s := range states {
			for s.gen < boundary {
				if ctx.Err() != nil {
					if iopt.OnCheckpoint != nil {
						if err := iopt.OnCheckpoint(snapshot()); err != nil {
							return result(), err
						}
					}
					return result(), ctx.Err()
				}
				s.step()
			}
		}
		// Migration barrier: snapshot every island's migrant set first,
		// then inject, so the exchange is simultaneous and ring order
		// cannot influence what is sent. Skipped after the final epoch —
		// migrants could no longer influence any evaluation.
		if boundary < opt.Generations && iopt.Islands > 1 {
			sp := opt.Obs.Start(obs.StageMigration)
			pops := make([][]*Individual, len(states))
			archives := make([][]*Individual, len(states))
			for i, s := range states {
				pops[i], archives[i] = s.pop, s.archive
			}
			migrateRing(pops, archives, iopt.Migrants)
			sp.End()
		}
		if iopt.OnCheckpoint != nil && boundary < opt.Generations {
			if err := iopt.OnCheckpoint(snapshot()); err != nil {
				return result(), err
			}
		}
		if iopt.OnProgress != nil {
			evals, runEvals := 0, 0
			for _, s := range states {
				evals += s.evals
				runEvals += s.runEvals
			}
			iopt.OnProgress(Progress{
				Generation:     boundary - 1,
				Generations:    opt.Generations,
				Evaluations:    evals,
				RunEvaluations: runEvals,
				Archive:        mergeIslandArchives(states, opt.ArchiveEpsilon),
				Elapsed:        time.Since(start),
			})
		}
	}
	return result(), nil
}
