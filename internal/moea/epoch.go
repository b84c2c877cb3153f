package moea

import (
	"context"
	"fmt"
	"sort"
)

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
// of a campaign by exactly one migration epoch and returns the partial
// checkpoint of those islands in their post-epoch, pre-migration state.
// full is the campaign-wide checkpoint to step from; nil bootstraps
// epoch 0 (the subset's islands sample their initial populations from
// the derived seed streams, exactly as Run would). The epoch boundary
// is computed from the full checkpoint's least-advanced island — the
// schedule Run follows — so parts produced by different processes agree
// on it without coordination. Restoring from full evaluates nothing;
// only the offspring the epoch breeds are evaluated. Callbacks and
// checkpoint options are ignored.
//
// Cancellation is honored at generation boundaries and returns
// ctx.Err() without emitting a checkpoint: the orchestrator's recovery
// point is the last full checkpoint, and a re-run of the epoch
// reproduces the same part bit for bit.
func EpochStep(ctx context.Context, p Problem, opt Options, full *IslandCheckpoint, first, count int) (*IslandCheckpoint, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	opt = opt.withDefaults()
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
	return snapshotIslands(states, opt, first), nil
}

// MergeShards assembles the partial checkpoints one epoch's workers
// emitted into the next full campaign checkpoint, performing the
// synchronous ring migration centrally: migrant selection
// (selectMigrants — lexicographic, evenly spaced over each archive) and
// worst-replacement injection (injectMigrants) run on individuals
// restored from the parts' stored genotype/objective pairs — exactly
// the code the in-process driver runs, on exactly the values it would
// see, so the merged checkpoint is byte-identical to the in-process
// snapshot at the same boundary. Nothing is evaluated. Migration is
// skipped after the final epoch (done=true), matching Run.
//
// The parts must cover every island of the campaign exactly once and
// agree on the seed and on the epoch boundary (the generation their
// islands stand at), so a part left over from an earlier epoch is
// rejected; their topology must match the topology fields of opt, the
// orchestrator's own. Parts may be passed in any order.
func MergeShards(parts []*IslandCheckpoint, opt Options) (cp *IslandCheckpoint, done bool, err error) {
	if len(parts) == 0 {
		return nil, false, fmt.Errorf("moea: merge: no shards")
	}
	opt = opt.withDefaults()
	for _, part := range parts {
		if part == nil {
			return nil, false, fmt.Errorf("moea: merge: missing shard")
		}
	}
	sorted := append([]*IslandCheckpoint(nil), parts...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a].First < sorted[b].First })

	ref := sorted[0]
	for _, part := range sorted {
		last := part.First + len(part.States)
		if err := part.validate(); err != nil {
			return nil, false, fmt.Errorf("moea: merge: shard [%d,%d): %w: %v", part.First, last, ErrCheckpointCorrupt, err)
		}
		if part.Islands != opt.Islands || part.MigrateEvery != opt.MigrateEvery || part.Migrants != opt.Migrants {
			return nil, false, fmt.Errorf("moea: merge: shard [%d,%d) topology (%d islands, migrate %d, migrants %d) does not match campaign (%d, %d, %d)",
				part.First, last, part.Islands, part.MigrateEvery, part.Migrants, opt.Islands, opt.MigrateEvery, opt.Migrants)
		}
		if part.Seed != ref.Seed {
			return nil, false, fmt.Errorf("moea: merge: shard [%d,%d) seed %d does not match %d", part.First, last, part.Seed, ref.Seed)
		}
		if g, want := part.States[0].NextGeneration, ref.States[0].NextGeneration; g != want {
			return nil, false, fmt.Errorf("moea: merge: shard [%d,%d) at generation %d, expected %d (stale shard from an earlier epoch?)",
				part.First, last, g, want)
		}
	}
	var states []*Checkpoint
	for _, part := range sorted {
		if part.First != len(states) {
			return nil, false, fmt.Errorf("moea: merge: shards do not cover island %d exactly once", len(states))
		}
		states = append(states, part.States...)
	}
	if len(states) != opt.Islands {
		return nil, false, fmt.Errorf("moea: merge: shards cover %d of %d islands", len(states), opt.Islands)
	}
	cp = &IslandCheckpoint{
		Format:       IslandCheckpointFormat,
		Version:      IslandCheckpointVersion,
		Seed:         ref.Seed,
		Islands:      opt.Islands,
		MigrateEvery: opt.MigrateEvery,
		Migrants:     opt.Migrants,
		States:       states,
	}
	if err := cp.validate(); err != nil {
		return nil, false, fmt.Errorf("moea: merge: %w: %v", ErrCheckpointCorrupt, err)
	}

	done = states[0].NextGeneration >= states[0].Generations
	if !done {
		pops := make([][]*Individual, len(states))
		archives := make([][]*Individual, len(states))
		for i, st := range states {
			pops[i] = restoreIndividuals(st.Population, st.PopulationObjectives)
			archives[i] = restoreIndividuals(st.Archive, st.ArchiveObjectives)
		}
		migrateRing(pops, archives, opt.Migrants)
		// Write the post-migration populations back into the per-island
		// checkpoints; injection only replaces whole members, so this is a
		// pure reshuffle of already-stored vectors.
		for i, st := range states {
			st.Population = genotypes(pops[i])
			st.PopulationObjectives = objectiveVectors(pops[i])
		}
	}
	return cp, done, nil
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
// restored (evaluating nothing, exactly as resume does) and the
// archives fold in island order — the same merge Run performs at the
// end of an uninterrupted run, so a completed multi-process campaign
// reports a byte-identical front. On a checkpoint taken mid-campaign it
// yields the partial front. Restored archive members carry no payload.
func MergeIslandCheckpoint(ctx context.Context, p Problem, opt Options, cp *IslandCheckpoint) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	opt = opt.withDefaults()
	if err := cp.check(opt); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	states, err := buildIslandStates(p, opt, cp, 0, opt.Islands, nil)
	if err != nil {
		return nil, err
	}
	return islandResult(states, opt.ArchiveEpsilon), nil
}
