package moea

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"repro/internal/durable"
)

// Island shard checkpoint file format identifiers. A shard checkpoint
// is the output of one epoch-step worker: the post-epoch state of a
// contiguous island subset, carried between processes of one campaign.
// Unlike the full island checkpoint it also serializes the objective
// vectors of every population and archive member, so the orchestrator
// can perform the ring migration centrally — lexicographic migrant
// selection and worst-replacement injection need objectives — without
// re-evaluating a single genotype.
const (
	IslandShardFormat  = "eedse-dse-island-shard"
	IslandShardVersion = 1
)

// IslandShard is the partial campaign snapshot one epoch-step worker
// emits: islands [First, First+Count) advanced to generation Boundary.
// States holds the standard per-island checkpoints in island order;
// PopObjectives/ArchiveObjectives are aligned element-for-element with
// each state's Population/Archive genotype matrices. Objective values
// survive the JSON round trip exactly (Go encodes float64 with the
// shortest representation that parses back to the same bits), so
// central migration on deserialized shards is bit-identical to
// in-process migration.
type IslandShard struct {
	Format  string `json:"format"`
	Version int    `json:"version"`

	Seed         int64 `json:"seed"`
	Islands      int   `json:"islands"`
	MigrateEvery int   `json:"migrate_every"`
	Migrants     int   `json:"migrants"`

	// First/Count identify the contiguous island range of this shard;
	// Boundary is the generation every island in the shard reached.
	First    int `json:"first"`
	Count    int `json:"count"`
	Boundary int `json:"boundary"`

	States            []*Checkpoint  `json:"states"`
	PopObjectives     [][]Objectives `json:"pop_objectives"`
	ArchiveObjectives [][]Objectives `json:"archive_objectives"`
}

// check validates a shard's internal consistency.
func (sh *IslandShard) check() error {
	if sh.Format != IslandShardFormat {
		return fmt.Errorf("moea: shard: not an island shard file (format %q)", sh.Format)
	}
	if sh.Version != IslandShardVersion {
		return fmt.Errorf("moea: shard: unsupported island shard version %d (want %d)", sh.Version, IslandShardVersion)
	}
	if sh.Count < 1 || sh.First < 0 || sh.First+sh.Count > sh.Islands {
		return fmt.Errorf("moea: shard: island range [%d,%d) outside campaign of %d islands", sh.First, sh.First+sh.Count, sh.Islands)
	}
	if len(sh.States) != sh.Count || len(sh.PopObjectives) != sh.Count || len(sh.ArchiveObjectives) != sh.Count {
		return fmt.Errorf("moea: shard: %d states / %d pop objectives / %d archive objectives for %d islands",
			len(sh.States), len(sh.PopObjectives), len(sh.ArchiveObjectives), sh.Count)
	}
	for j, st := range sh.States {
		if st == nil {
			return fmt.Errorf("moea: shard: island %d: missing state", sh.First+j)
		}
		if st.NextGeneration != sh.Boundary {
			return fmt.Errorf("moea: shard: island %d at generation %d, shard boundary %d", sh.First+j, st.NextGeneration, sh.Boundary)
		}
		if len(sh.PopObjectives[j]) != len(st.Population) {
			return fmt.Errorf("moea: shard: island %d: %d population objectives for %d genotypes", sh.First+j, len(sh.PopObjectives[j]), len(st.Population))
		}
		if len(sh.ArchiveObjectives[j]) != len(st.Archive) {
			return fmt.Errorf("moea: shard: island %d: %d archive objectives for %d genotypes", sh.First+j, len(sh.ArchiveObjectives[j]), len(st.Archive))
		}
	}
	return nil
}

// WriteFile atomically writes the shard checkpoint (see
// IslandCheckpoint.WriteFile for the durability contract). Workers
// always write atomically so the orchestrator never reads a torn shard,
// even across a mid-epoch kill and re-run.
func (sh *IslandShard) WriteFile(path string) error {
	data, err := json.Marshal(sh)
	if err == nil {
		err = durable.WriteFileAtomic(durable.OSFS{}, path, data)
	}
	if err != nil {
		return fmt.Errorf("moea: island shard: %w", err)
	}
	return nil
}

// ReadIslandShardFile loads a shard checkpoint written by WriteFile.
func ReadIslandShardFile(path string) (*IslandShard, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("moea: island shard: %w", err)
	}
	sh := &IslandShard{}
	if err := json.Unmarshal(data, sh); err != nil {
		return nil, fmt.Errorf("moea: island shard %s: %w: %v", path, ErrCheckpointCorrupt, err)
	}
	if err := sh.check(); err != nil {
		return nil, fmt.Errorf("moea: island shard %s: %w: %v", path, ErrCheckpointCorrupt, err)
	}
	return sh, nil
}

// ShardRange partitions `islands` islands into `procs` contiguous
// shards as evenly as possible and returns shard k's range
// [first, first+count). Every island lands in exactly one shard and
// shard sizes differ by at most one. The partition never influences
// results (islands are independent within an epoch); it only balances
// work, so the orchestrator and any worker invoked by hand agree on it
// by construction.
func ShardRange(islands, procs, k int) (first, count int) {
	first = k * islands / procs
	end := (k + 1) * islands / procs
	return first, end - first
}

// EpochStep advances the contiguous island subset [first, first+count)
// of a campaign by exactly one migration epoch and returns the shard
// checkpoint holding the post-epoch, pre-migration state. full is the
// campaign-wide checkpoint to step from; nil bootstraps epoch 0 (the
// subset's islands sample their initial populations from the derived
// seed streams, exactly as Run would). The epoch boundary is computed
// from the full checkpoint's least-advanced island — the schedule Run
// follows — so shards produced by different processes agree on it
// without coordination. Callbacks and checkpoint options are ignored.
//
// Cancellation is honored at generation boundaries and returns
// ctx.Err() without emitting a shard: the orchestrator's recovery point
// is the last full checkpoint, and a re-run of the epoch reproduces the
// same shard bit for bit.
func EpochStep(ctx context.Context, p Problem, opt Options, full *IslandCheckpoint, first, count int) (*IslandShard, error) {
	genLen := p.GenotypeLen()
	if genLen <= 0 {
		return nil, errEmptyGenotype
	}
	if ctx == nil {
		ctx = context.Background()
	}
	opt = opt.withDefaults(genLen)
	if count < 1 || first < 0 || first+count > opt.Islands {
		return nil, fmt.Errorf("moea: epoch step: island range [%d,%d) outside campaign of %d islands", first, first+count, opt.Islands)
	}

	minGen := 0
	if full != nil {
		if err := full.check(opt); err != nil {
			return nil, err
		}
		minGen = opt.Generations
		for _, st := range full.States {
			minGen = min(minGen, st.NextGeneration)
		}
	}
	if minGen >= opt.Generations {
		return nil, fmt.Errorf("moea: epoch step: campaign already complete (generation %d of %d)", minGen, opt.Generations)
	}
	// The epoch ends where Run migrates next: the smallest MigrateEvery
	// multiple beyond the least-advanced island, capped at the budget.
	boundary := min((minGen/opt.MigrateEvery+1)*opt.MigrateEvery, opt.Generations)

	pool := newEvalPool(p, opt.Workers)
	defer pool.close()
	states, err := buildIslandStates(p, opt, full, first, count, pool)
	if err != nil {
		return nil, err
	}
	if err := advance(ctx, states, boundary, nil); err != nil {
		return nil, err
	}

	sh := &IslandShard{
		Format:            IslandShardFormat,
		Version:           IslandShardVersion,
		Seed:              opt.Seed,
		Islands:           opt.Islands,
		MigrateEvery:      opt.MigrateEvery,
		Migrants:          opt.Migrants,
		First:             first,
		Count:             count,
		Boundary:          boundary,
		States:            make([]*Checkpoint, count),
		PopObjectives:     make([][]Objectives, count),
		ArchiveObjectives: make([][]Objectives, count),
	}
	for j, s := range states {
		sh.States[j] = s.snapshot()
		sh.PopObjectives[j] = objectiveVectors(s.pop)
		sh.ArchiveObjectives[j] = objectiveVectors(s.archive)
	}
	return sh, nil
}

// objectiveVectors extracts the objective matrix of a population,
// aligned with genotypes() for shard serialization.
func objectiveVectors(pop []*Individual) []Objectives {
	out := make([]Objectives, len(pop))
	for i, ind := range pop {
		out[i] = ind.Objectives
	}
	return out
}

// MergeShards assembles one epoch's worker shards into the next full
// campaign checkpoint, performing the synchronous ring migration
// centrally: migrant selection (selectMigrants — lexicographic,
// evenly spaced over each archive) and worst-replacement injection
// (injectMigrants) run on individuals rebuilt from the shards'
// serialized genotype/objective pairs — exactly the code the in-process
// driver runs, on exactly the values it would see, so the merged
// checkpoint is byte-identical to the in-process snapshot at the same
// boundary. Migration is skipped after the final epoch (done=true),
// matching Run.
//
// The shards must cover every island of the campaign exactly once and
// agree on (seed, islands, migrate-every, migrants, boundary); the
// topology fields of opt cross-check the orchestrator's own. Shards may
// be passed in any order.
func MergeShards(shards []*IslandShard, opt Options) (cp *IslandCheckpoint, done bool, err error) {
	if len(shards) == 0 {
		return nil, false, fmt.Errorf("moea: merge: no shards")
	}
	opt = opt.withDefaults(0)
	for _, sh := range shards {
		if sh == nil {
			return nil, false, fmt.Errorf("moea: merge: missing shard")
		}
	}
	sorted := append([]*IslandShard(nil), shards...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a].First < sorted[b].First })

	ref := sorted[0]
	for _, sh := range sorted {
		if err := sh.check(); err != nil {
			return nil, false, err
		}
		if sh.Islands != opt.Islands || sh.MigrateEvery != opt.MigrateEvery || sh.Migrants != opt.Migrants {
			return nil, false, fmt.Errorf("moea: merge: shard [%d,%d) topology (%d islands, migrate %d, migrants %d) does not match campaign (%d, %d, %d)",
				sh.First, sh.First+sh.Count, sh.Islands, sh.MigrateEvery, sh.Migrants, opt.Islands, opt.MigrateEvery, opt.Migrants)
		}
		if sh.Seed != ref.Seed {
			return nil, false, fmt.Errorf("moea: merge: shard [%d,%d) seed %d does not match %d", sh.First, sh.First+sh.Count, sh.Seed, ref.Seed)
		}
		if sh.Boundary != ref.Boundary {
			return nil, false, fmt.Errorf("moea: merge: shard [%d,%d) at boundary %d, expected %d (stale shard from an earlier epoch?)",
				sh.First, sh.First+sh.Count, sh.Boundary, ref.Boundary)
		}
	}
	next := 0
	for _, sh := range sorted {
		if sh.First != next {
			return nil, false, fmt.Errorf("moea: merge: shards do not cover island %d exactly once", next)
		}
		next = sh.First + sh.Count
	}
	if next != opt.Islands {
		return nil, false, fmt.Errorf("moea: merge: shards cover %d of %d islands", next, opt.Islands)
	}

	// Reassemble per-island state and rebuild (genotype, objectives)
	// individuals for the central migration.
	states := make([]*Checkpoint, opt.Islands)
	pops := make([][]*Individual, opt.Islands)
	archives := make([][]*Individual, opt.Islands)
	generations := 0
	for _, sh := range sorted {
		for j := 0; j < sh.Count; j++ {
			i := sh.First + j
			states[i] = sh.States[j]
			pops[i] = rebuildIndividuals(sh.States[j].Population, sh.PopObjectives[j])
			archives[i] = rebuildIndividuals(sh.States[j].Archive, sh.ArchiveObjectives[j])
			generations = sh.States[j].Generations
		}
	}
	done = ref.Boundary >= generations

	if !done {
		migrateRing(pops, archives, opt.Migrants)
		// Write the post-migration populations back into the per-island
		// checkpoints; injection only replaces whole genotypes, so this is
		// a pure reshuffle of already-serialized vectors.
		for i := range states {
			states[i].Population = genotypes(pops[i])
		}
	}

	return &IslandCheckpoint{
		Format:       IslandCheckpointFormat,
		Version:      IslandCheckpointVersion,
		Seed:         ref.Seed,
		Islands:      opt.Islands,
		MigrateEvery: opt.MigrateEvery,
		Migrants:     opt.Migrants,
		States:       states,
	}, done, nil
}

// rebuildIndividuals zips serialized genotypes and objective vectors
// back into individuals (no payloads — migration never reads them).
func rebuildIndividuals(genos [][]float64, objs []Objectives) []*Individual {
	out := make([]*Individual, len(genos))
	for i := range genos {
		out[i] = &Individual{Genotype: genos[i], Objectives: objs[i]}
	}
	return out
}

// CampaignDone reports whether every island of the checkpoint has
// reached its generation budget — the orchestrator's loop condition.
func CampaignDone(cp *IslandCheckpoint) bool {
	for _, st := range cp.States {
		if st == nil || st.NextGeneration < st.Generations {
			return false
		}
	}
	return len(cp.States) > 0
}

// MergeIslandCheckpoint turns a full campaign checkpoint into the
// campaign Result without advancing any island: every island's state is
// restored (re-evaluating its genotypes, exactly as resume does) and
// the archives fold in island order — the same merge Run performs at
// the end of an uninterrupted run, so a completed multi-process
// campaign reports a byte-identical front. On a checkpoint taken
// mid-campaign it yields the partial front.
func MergeIslandCheckpoint(ctx context.Context, p Problem, opt Options, cp *IslandCheckpoint) (*Result, error) {
	genLen := p.GenotypeLen()
	if genLen <= 0 {
		return nil, errEmptyGenotype
	}
	if ctx == nil {
		ctx = context.Background()
	}
	opt = opt.withDefaults(genLen)
	if err := cp.check(opt); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	pool := newEvalPool(p, opt.Workers)
	defer pool.close()
	states, err := buildIslandStates(p, opt, cp, 0, opt.Islands, pool)
	if err != nil {
		return nil, err
	}
	return islandResult(states, opt.ArchiveEpsilon), nil
}
