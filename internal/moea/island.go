package moea

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"slices"
	"sort"

	"repro/internal/durable"
)

// ErrCheckpointCorrupt marks a checkpoint file that exists but cannot
// be trusted — unparseable JSON, wrong format or version, or
// internally inconsistent state. Callers distinguish it (errors.Is)
// from a merely missing file: missing means start fresh, corrupt means
// stop and name the file rather than silently discarding progress.
var ErrCheckpointCorrupt = errors.New("checkpoint corrupt")

// Island checkpoint file format identifiers. The file embeds one
// Checkpoint per island, so every island's state is individually
// resumable; its format and version cover the states inside it.
// Version 2 stored each member's objective vector next to its genotype,
// as math.Float64bits integers, and added First; version 3 writes the
// vectors as JSON numbers (see ExactVector). Files of versions 1
// (genotypes only) and 2 are rejected, not evaluated again.
const (
	IslandCheckpointFormat  = "eedse-dse-island-checkpoint"
	IslandCheckpointVersion = 3
)

// IslandCheckpoint is a snapshot of an island campaign at a generation
// boundary. States holds the standard optimizer checkpoints of islands
// [First, First+len(States)) in island order. A full checkpoint covers
// every island; a snapshot taken at a migration barrier stores the
// post-migration populations, so resuming proceeds straight into the
// next epoch without re-migrating. A partial checkpoint is what one
// epoch-step worker emits (EpochStep): its islands all stand at the
// same generation, the epoch boundary, and MergeShards assembles the
// parts of one epoch into the next full checkpoint.
type IslandCheckpoint struct {
	Format  string `json:"format"`
	Version int    `json:"version"`

	Seed         int64 `json:"seed"`
	Islands      int   `json:"islands"`
	MigrateEvery int   `json:"migrate_every"`
	Migrants     int   `json:"migrants"`

	First  int           `json:"first"`
	States []*Checkpoint `json:"states"`
}

// validate checks the checkpoint's internal consistency, independent of
// any run: format and version, a positive topology, states covering a
// contiguous island range of the campaign, and one NSGA-II state per
// island whose seed is that island's derived stream, whose population
// size and generation budget agree across islands, whose population and
// generation fit them, and whose members each carry an objective
// vector, all of one length. The islands of a partial checkpoint must
// stand at one generation.
func (cp *IslandCheckpoint) validate() error {
	if cp.Format != IslandCheckpointFormat {
		return fmt.Errorf("not an island checkpoint file (format %q)", cp.Format)
	}
	if cp.Version != IslandCheckpointVersion {
		return fmt.Errorf("unsupported version %d (want %d)", cp.Version, IslandCheckpointVersion)
	}
	if cp.Islands < 1 || cp.MigrateEvery < 1 {
		return fmt.Errorf("invalid topology: %d islands, migrate every %d", cp.Islands, cp.MigrateEvery)
	}
	if len(cp.States) == 0 || cp.First < 0 || cp.First+len(cp.States) > cp.Islands {
		return fmt.Errorf("%d states from island %d outside campaign of %d islands", len(cp.States), cp.First, cp.Islands)
	}
	ref := cp.States[0]
	partial := len(cp.States) < cp.Islands
	nobj := -1
	for j, st := range cp.States {
		i := cp.First + j
		switch {
		case st == nil:
			return fmt.Errorf("island %d: missing state", i)
		case st.Seed != IslandSeed(cp.Seed, i):
			return fmt.Errorf("island %d: state seed %d is not the island's stream of campaign seed %d", i, st.Seed, cp.Seed)
		case st.PopSize != ref.PopSize || st.Generations != ref.Generations:
			return fmt.Errorf("island %d: population %d / %d generations, island %d has %d / %d",
				i, st.PopSize, st.Generations, cp.First, ref.PopSize, ref.Generations)
		case len(st.Population) != st.PopSize:
			return fmt.Errorf("island %d: %d genotypes for population %d", i, len(st.Population), st.PopSize)
		case st.NextGeneration < 0 || st.NextGeneration > st.Generations:
			return fmt.Errorf("island %d: at generation %d of %d", i, st.NextGeneration, st.Generations)
		case partial && st.NextGeneration != ref.NextGeneration:
			return fmt.Errorf("island %d: at generation %d, island %d at %d in one partial checkpoint", i, st.NextGeneration, cp.First, ref.NextGeneration)
		case len(st.PopulationObjectives) != len(st.Population):
			return fmt.Errorf("island %d: %d population objective vectors for %d genotypes", i, len(st.PopulationObjectives), len(st.Population))
		case len(st.ArchiveObjectives) != len(st.Archive):
			return fmt.Errorf("island %d: %d archive objective vectors for %d genotypes", i, len(st.ArchiveObjectives), len(st.Archive))
		}
		for _, objs := range [][]ExactVector{st.PopulationObjectives, st.ArchiveObjectives} {
			for _, v := range objs {
				if nobj < 0 {
					nobj = len(v)
				}
				if len(v) != nobj {
					return fmt.Errorf("island %d: objective vector of length %d, expected %d", i, len(v), nobj)
				}
			}
		}
	}
	return nil
}

// check validates an island checkpoint against the campaign resuming it
// (opt must carry defaults). Only a full checkpoint resumes a campaign.
func (cp *IslandCheckpoint) check(opt Options) error {
	if err := cp.validate(); err != nil {
		return fmt.Errorf("moea: resume: %w: %v", ErrCheckpointCorrupt, err)
	}
	st := cp.States[0]
	switch {
	case cp.First != 0 || len(cp.States) != cp.Islands:
		return fmt.Errorf("moea: resume: partial checkpoint of islands [%d,%d) of %d; a campaign resumes from a full one",
			cp.First, cp.First+len(cp.States), cp.Islands)
	case cp.Islands != opt.Islands:
		return fmt.Errorf("moea: resume: checkpoint has %d islands, run uses %d", cp.Islands, opt.Islands)
	case cp.MigrateEvery != opt.MigrateEvery:
		return fmt.Errorf("moea: resume: checkpoint migrates every %d generations, run every %d", cp.MigrateEvery, opt.MigrateEvery)
	case cp.Migrants != opt.Migrants:
		return fmt.Errorf("moea: resume: checkpoint migrates %d individuals, run %d", cp.Migrants, opt.Migrants)
	case cp.Seed != opt.Seed:
		return fmt.Errorf("moea: resume: checkpoint seed %d does not match Seed %d", cp.Seed, opt.Seed)
	case st.PopSize != opt.PopSize:
		return fmt.Errorf("moea: resume: checkpoint population size %d does not match PopSize %d", st.PopSize, opt.PopSize)
	case st.Generations != opt.Generations:
		return fmt.Errorf("moea: resume: checkpoint targets %d generations, run targets %d", st.Generations, opt.Generations)
	}
	for _, st := range cp.States {
		if !slices.Equal(st.ArchiveEpsilon, opt.ArchiveEpsilon) {
			return fmt.Errorf("moea: resume: checkpoint ε-archive %v does not match ArchiveEpsilon %v", st.ArchiveEpsilon, opt.ArchiveEpsilon)
		}
	}
	return nil
}

// WriteFile atomically writes the island checkpoint through
// durable.WriteFileAtomic (path+".tmp", fsync, rename, directory
// fsync), so a crash mid-write never destroys the previous checkpoint
// and a checkpoint reported as written survives power loss.
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
	if err := cp.validate(); err != nil {
		return nil, fmt.Errorf("moea: island checkpoint %s: %w: %v", path, ErrCheckpointCorrupt, err)
	}
	return cp, nil
}

// IslandSeed derives island i's PRNG seed from the campaign seed.
// Island 0 keeps the campaign seed; the rest get decorrelated streams
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
// transformation of (genotypes, objectives, order) — Run and the
// orchestrator's central merge of worker checkpoints call exactly this
// code, which is what keeps the multi-process campaign byte-identical
// to the in-process one.
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
// count and of which process hosted which island. A single island's
// archive is returned as is (read-only for the caller).
func mergeIslandArchives(states []*nsga2, eps []float64) []*Individual {
	if len(states) == 1 {
		return states[0].archive
	}
	var merged []*Individual
	for _, s := range states {
		merged = updateArchive(merged, s.archive, eps)
	}
	return merged
}

// buildIslandStates constructs the stepping optimizers for the
// contiguous island subset [first, first+count): each island runs the
// base options with its derived seed (IslandSeed). When resume is
// non-nil, island i restores from resume.States[i] without evaluating
// anything; it must have passed check. opt must already carry defaults.
// Run, EpochStep and MergeIslandCheckpoint all build their islands
// here, so the paths cannot drift apart.
func buildIslandStates(p Problem, opt Options, resume *IslandCheckpoint, first, count int, pool *evalPool) ([]*nsga2, error) {
	states := make([]*nsga2, count)
	for j := range states {
		i := first + j
		o := opt
		o.Seed = IslandSeed(opt.Seed, i)
		var st *Checkpoint
		if resume != nil {
			st = resume.States[i]
		}
		s, err := newNSGA2(p, o, st, pool)
		if err != nil {
			return nil, fmt.Errorf("moea: island %d: %w", i, err)
		}
		states[j] = s
	}
	return states, nil
}

// snapshotIslands captures a checkpoint of islands
// [first, first+len(states)) from their in-memory states, in island
// order: a full campaign checkpoint when they are every island.
func snapshotIslands(states []*nsga2, opt Options, first int) *IslandCheckpoint {
	cp := &IslandCheckpoint{
		Format:       IslandCheckpointFormat,
		Version:      IslandCheckpointVersion,
		Seed:         opt.Seed,
		Islands:      opt.Islands,
		MigrateEvery: opt.MigrateEvery,
		Migrants:     opt.Migrants,
		First:        first,
		States:       make([]*Checkpoint, len(states)),
	}
	for i, s := range states {
		cp.States[i] = s.snapshot()
	}
	return cp
}

// islandResult folds the island states into the campaign Result: merged
// archive (island order) and summed evaluation counts.
func islandResult(states []*nsga2, eps []float64) *Result {
	res := &Result{Archive: mergeIslandArchives(states, eps)}
	for _, s := range states {
		res.Evaluations += s.evals
	}
	return res
}
