package moea

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestShardRangePartition: the shard partition must cover every island
// exactly once, contiguously, with shard sizes differing by at most one
// — for every (islands, procs) combination the orchestrator can form.
func TestShardRangePartition(t *testing.T) {
	for islands := 1; islands <= 9; islands++ {
		for procs := 1; procs <= islands; procs++ {
			next, min, max := 0, islands, 0
			for k := 0; k < procs; k++ {
				first, count := ShardRange(islands, procs, k)
				if first != next {
					t.Fatalf("islands=%d procs=%d shard %d starts at %d, want %d", islands, procs, k, first, next)
				}
				next = first + count
				if count < min {
					min = count
				}
				if count > max {
					max = count
				}
			}
			if next != islands {
				t.Fatalf("islands=%d procs=%d: shards cover %d islands", islands, procs, next)
			}
			if max-min > 1 {
				t.Fatalf("islands=%d procs=%d: shard sizes range %d..%d", islands, procs, min, max)
			}
		}
	}
}

// stepEpochSharded runs one migration epoch the way the orchestrator
// does: procs EpochStep calls over the shard partition, each partial
// checkpoint JSON-round-tripped (modelling the file hop between
// processes), then MergeShards. opt.Workers may differ per call — it
// must not matter.
func stepEpochSharded(t *testing.T, p Problem, opt Options, cur *IslandCheckpoint, procs int) (*IslandCheckpoint, bool) {
	t.Helper()
	if procs > opt.Islands {
		procs = opt.Islands
	}
	parts := make([]*IslandCheckpoint, procs)
	for k := 0; k < procs; k++ {
		first, count := ShardRange(opt.Islands, procs, k)
		part, err := EpochStep(context.Background(), p, opt, cur, first, count)
		if err != nil {
			t.Fatalf("epoch step %d/%d: %v", k, procs, err)
		}
		parts[k] = roundTrip(t, part)
	}
	merged, done, err := MergeShards(parts, opt)
	if err != nil {
		t.Fatalf("merge at procs=%d: %v", procs, err)
	}
	return merged, done
}

// roundTrip returns a deep copy of cp made through its JSON encoding.
func roundTrip(tb testing.TB, cp *IslandCheckpoint) *IslandCheckpoint {
	tb.Helper()
	data, err := json.Marshal(cp)
	if err != nil {
		tb.Fatal(err)
	}
	out := &IslandCheckpoint{}
	if err := json.Unmarshal(data, out); err != nil {
		tb.Fatal(err)
	}
	return out
}

// TestShardedCampaignMatchesInProcess is the process-sharding
// acceptance gate: stepping the campaign epoch by epoch through
// EpochStep + MergeShards — with the process count AND the worker count
// changing every epoch — must reproduce the in-process Run's
// checkpoint trajectory at the migration barriers byte for byte, and
// the final merged front plus evaluation count exactly.
func TestShardedCampaignMatchesInProcess(t *testing.T) {
	p := zdt1{n: 10}
	opt := Options{PopSize: 16, Generations: 20, Seed: 5, Workers: 2, Islands: 3, MigrateEvery: 5, Migrants: 3}

	full, err := Run(context.Background(), p, opt)
	if err != nil {
		t.Fatal(err)
	}
	var cps [][]byte
	capture := opt
	capture.CheckpointEvery = opt.MigrateEvery
	capture.OnCheckpoint = func(cp *IslandCheckpoint) error {
		data, err := json.Marshal(cp)
		if err != nil {
			return err
		}
		cps = append(cps, data)
		return nil
	}
	if _, err := Run(context.Background(), p, capture); err != nil {
		t.Fatal(err)
	}
	if len(cps) == 0 {
		t.Fatal("no in-process checkpoints captured")
	}

	procsSeq := []int{1, 2, 3, 4}
	workerSeq := []int{4, 1, 8, 2}
	var cur *IslandCheckpoint
	merges := 0
	for epoch := 0; ; epoch++ {
		o := opt
		o.Workers = workerSeq[epoch%len(workerSeq)]
		merged, done := stepEpochSharded(t, p, o, cur, procsSeq[epoch%len(procsSeq)])
		cur = merged
		if done {
			break
		}
		// Every non-final merge corresponds to one in-process
		// post-migration checkpoint; they must be byte-identical.
		if merges >= len(cps) {
			t.Fatalf("sharded run produced more epochs than in-process (%d checkpoints)", len(cps))
		}
		data, err := json.Marshal(merged)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, cps[merges]) {
			t.Fatalf("epoch %d: merged checkpoint differs from in-process checkpoint", epoch)
		}
		merges++
	}
	if merges != len(cps) {
		t.Fatalf("sharded run merged %d non-final epochs, in-process emitted %d checkpoints", merges, len(cps))
	}

	if !CampaignDone(cur) {
		t.Fatal("final merged checkpoint not complete")
	}
	res, err := MergeIslandCheckpoint(context.Background(), p, opt, cur)
	if err != nil {
		t.Fatal(err)
	}
	archivesEqual(t, full.Archive, res.Archive, "sharded campaign front")
	if res.Evaluations != full.Evaluations {
		t.Fatalf("evaluations %d, want %d", res.Evaluations, full.Evaluations)
	}
}

// TestShardedResumeFromInProcessCheckpoint: the two drivers share one
// checkpoint format in both directions — a campaign started in-process
// can be finished sharded (and the front stays identical).
func TestShardedResumeFromInProcessCheckpoint(t *testing.T) {
	p := zdt1{n: 10}
	opt := Options{PopSize: 16, Generations: 20, Seed: 11, Workers: 2, Islands: 3, MigrateEvery: 5, Migrants: 2}
	full, cps := runCapturing(t, p, opt, 7) // first checkpoint mid-epoch, at generation 7

	cur := cps[0]
	for {
		merged, done := stepEpochSharded(t, p, opt, cur, 2)
		cur = merged
		if done {
			break
		}
	}
	res, err := MergeIslandCheckpoint(context.Background(), p, opt, cur)
	if err != nil {
		t.Fatal(err)
	}
	archivesEqual(t, full.Archive, res.Archive, "in-process start, sharded finish")
	if res.Evaluations != full.Evaluations {
		t.Fatalf("evaluations %d, want %d", res.Evaluations, full.Evaluations)
	}
}

// TestEpochStepErrors: invalid shard ranges, topology mismatches,
// partial checkpoints and stepping a finished campaign are rejected with
// errors, not silently mangled state.
func TestEpochStepErrors(t *testing.T) {
	p := zdt1{n: 10}
	opt := Options{PopSize: 8, Generations: 4, Seed: 1, Islands: 2, MigrateEvery: 2, Migrants: 1}

	for _, tc := range []struct{ first, count int }{
		{-1, 1}, {0, 0}, {0, 3}, {2, 1},
	} {
		if _, err := EpochStep(context.Background(), p, opt, nil, tc.first, tc.count); err == nil {
			t.Fatalf("range [%d,%d) accepted", tc.first, tc.first+tc.count)
		}
	}

	// A worker's partial checkpoint is not a campaign to step from.
	part, err := EpochStep(context.Background(), p, opt, nil, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := EpochStep(context.Background(), p, opt, part, 0, 1); err == nil || !strings.Contains(err.Error(), "partial checkpoint") {
		t.Fatalf("stepping from a partial checkpoint: err = %v", err)
	}

	// Drive the campaign to completion, then ask for one more epoch.
	var cur *IslandCheckpoint
	for {
		merged, done := stepEpochSharded(t, p, opt, cur, 2)
		cur = merged
		if done {
			break
		}
	}
	if _, err := EpochStep(context.Background(), p, opt, cur, 0, 1); err == nil || !strings.Contains(err.Error(), "complete") {
		t.Fatalf("stepping a complete campaign: err = %v", err)
	}

	// Checkpoint topology must match the requesting campaign.
	bad := opt
	bad.Islands = 3
	if _, err := EpochStep(context.Background(), p, bad, cur, 0, 1); err == nil {
		t.Fatal("topology mismatch accepted")
	}

	// Cancellation aborts without emitting a checkpoint.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := EpochStep(ctx, p, opt, nil, 0, 1); err != context.Canceled {
		t.Fatalf("cancelled epoch step: err = %v, want context.Canceled", err)
	}
}

// TestMergeShardsErrors: incomplete, inconsistent or stale sets of
// partial checkpoints must be rejected — in particular a part left over
// from an earlier epoch (the mid-epoch-kill recovery hazard).
func TestMergeShardsErrors(t *testing.T) {
	p := zdt1{n: 10}
	opt := Options{PopSize: 8, Generations: 8, Seed: 3, Islands: 2, MigrateEvery: 2, Migrants: 1}

	step := func(cur *IslandCheckpoint, k int, seed int64) *IslandCheckpoint {
		o := opt
		o.Seed = seed
		first, count := ShardRange(opt.Islands, 2, k)
		part, err := EpochStep(context.Background(), p, o, cur, first, count)
		if err != nil {
			t.Fatal(err)
		}
		return part
	}
	edit := func(part *IslandCheckpoint, f func(st *Checkpoint)) *IslandCheckpoint {
		c := roundTrip(t, part)
		f(c.States[0])
		return c
	}

	// Epoch 0 parts, merged; then epoch 1 parts.
	e0s0, e0s1 := step(nil, 0, 3), step(nil, 1, 3)
	merged, done, err := MergeShards([]*IslandCheckpoint{e0s0, e0s1}, opt)
	if err != nil || done {
		t.Fatalf("epoch 0 merge: done=%v err=%v", done, err)
	}
	e1s0, e1s1 := step(merged, 0, 3), step(merged, 1, 3)

	other := opt
	other.MigrateEvery = 3
	cases := []struct {
		name  string
		parts []*IslandCheckpoint
		opt   Options
		want  string
	}{
		{"empty", nil, opt, "no shards"},
		{"nil shard", []*IslandCheckpoint{e1s0, nil}, opt, "missing shard"},
		{"stale epoch", []*IslandCheckpoint{e0s0, e1s1}, opt, "stale shard"},
		{"duplicate coverage", []*IslandCheckpoint{e1s0, e1s0}, opt, "cover"},
		{"partial coverage", []*IslandCheckpoint{e1s1}, opt, "cover"},
		{"seed mismatch", []*IslandCheckpoint{e1s0, step(nil, 1, 4)}, opt, "seed"},
		{"topology mismatch", []*IslandCheckpoint{e1s0, e1s1}, other, "topology"},
		{"objective misalignment", []*IslandCheckpoint{e1s0, edit(e1s1, func(st *Checkpoint) {
			st.ArchiveObjectives = st.ArchiveObjectives[1:]
		})}, opt, "archive objective vectors"},
		{"objective length", []*IslandCheckpoint{e1s0, edit(e1s1, func(st *Checkpoint) {
			for i := range st.PopulationObjectives {
				st.PopulationObjectives[i] = append(st.PopulationObjectives[i], 0)
			}
			for i := range st.ArchiveObjectives {
				st.ArchiveObjectives[i] = append(st.ArchiveObjectives[i], 0)
			}
		})}, opt, "island 1: objective vector of length 3, expected 2"},
	}
	for _, tc := range cases {
		if _, _, err := MergeShards(tc.parts, tc.opt); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}

	// The untouched epoch-1 set still merges (the error paths above must
	// not have mutated the parts).
	if _, _, err := MergeShards([]*IslandCheckpoint{e1s1, e1s0}, opt); err != nil {
		t.Fatalf("epoch 1 merge after error cases: %v", err)
	}
}

// TestReadIslandCheckpointFileErrors: corrupt or foreign checkpoint
// files fail loudly with a diagnostic naming the problem.
func TestReadIslandCheckpointFileErrors(t *testing.T) {
	p := zdt1{n: 10}
	opt := Options{PopSize: 8, Generations: 8, Seed: 2, Islands: 2, MigrateEvery: 4, Migrants: 1}
	_, cps := runCapturing(t, p, opt, 4)
	valid, err := json.Marshal(cps[0])
	if err != nil {
		t.Fatal(err)
	}

	mutate := func(f func(c *IslandCheckpoint)) []byte {
		c := &IslandCheckpoint{}
		if err := json.Unmarshal(valid, c); err != nil {
			t.Fatal(err)
		}
		f(c)
		data, err := json.Marshal(c)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}

	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"wrong format", mutate(func(c *IslandCheckpoint) { c.Format = "eedse-dse-checkpoint" }), "not an island checkpoint"},
		{"wrong version", mutate(func(c *IslandCheckpoint) { c.Version = 99 }), "unsupported version"},
		{"truncated json", valid[:len(valid)/2], "unexpected end of JSON"},
		{"not json", []byte("generation 12 of 40\n"), "invalid character"},
		{"null state", mutate(func(c *IslandCheckpoint) { c.States[1] = nil }), "island 1: missing state"},
		{"extra state", mutate(func(c *IslandCheckpoint) { c.States = append(c.States, c.States[0]) }), "3 states from island 0 outside campaign of 2 islands"},
		{"foreign state seed", mutate(func(c *IslandCheckpoint) { c.States[1].Seed = c.Seed }), "island 1: state seed"},
		{"population size", mutate(func(c *IslandCheckpoint) { c.States[1].PopSize = 6 }), "island 1: population"},
		{"population count", mutate(func(c *IslandCheckpoint) { c.States[0].Population = c.States[0].Population[1:] }), "island 0: 7 genotypes"},
		{"generation budget", mutate(func(c *IslandCheckpoint) { c.States[1].Generations = 9 }), "island 1: population"},
		{"generation past budget", mutate(func(c *IslandCheckpoint) { c.States[0].NextGeneration = 9 }), "island 0: at generation 9 of 8"},
		{"zero epoch", mutate(func(c *IslandCheckpoint) { c.MigrateEvery = 0 }), "topology"},
	}
	dir := t.TempDir()
	for _, tc := range cases {
		path := filepath.Join(dir, strings.ReplaceAll(tc.name, " ", "-")+".json")
		if err := os.WriteFile(path, tc.data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := ReadIslandCheckpointFile(path)
		if !errors.Is(err, ErrCheckpointCorrupt) || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: err = %v, want ErrCheckpointCorrupt with %q", tc.name, err, tc.want)
		}
	}
	_, err = ReadIslandCheckpointFile(filepath.Join(dir, "does-not-exist.json"))
	if err == nil || errors.Is(err, ErrCheckpointCorrupt) {
		t.Fatalf("missing file: err = %v, want an error that is not ErrCheckpointCorrupt", err)
	}
}

// TestReadPartialCheckpointFileErrors mirrors the checkpoint error
// paths for the partial checkpoints epoch-step workers write and the
// orchestrator merges.
func TestReadPartialCheckpointFileErrors(t *testing.T) {
	p := zdt1{n: 10}
	opt := Options{PopSize: 8, Generations: 8, Seed: 2, Islands: 3, MigrateEvery: 4, Migrants: 1}
	part, err := EpochStep(context.Background(), p, opt, nil, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	valid, err := json.Marshal(part)
	if err != nil {
		t.Fatal(err)
	}
	mutate := func(f func(c *IslandCheckpoint)) []byte {
		c := &IslandCheckpoint{}
		if err := json.Unmarshal(valid, c); err != nil {
			t.Fatal(err)
		}
		f(c)
		data, err := json.Marshal(c)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"wrong format", mutate(func(c *IslandCheckpoint) { c.Format = "eedse-dse-island-shard" }), "not an island checkpoint"},
		{"wrong version", mutate(func(c *IslandCheckpoint) { c.Version = 7 }), "unsupported version 7"},
		{"range outside campaign", mutate(func(c *IslandCheckpoint) { c.First = 2 }), "outside campaign"},
		{"objective misalignment", mutate(func(c *IslandCheckpoint) {
			c.States[0].PopulationObjectives = c.States[0].PopulationObjectives[:1]
		}), "population objective vectors"},
		{"boundary mismatch", mutate(func(c *IslandCheckpoint) { c.States[1].NextGeneration++ }), "one partial checkpoint"},
		{"truncated json", valid[:len(valid)-1], "unexpected end of JSON"},
	}
	dir := t.TempDir()
	for _, tc := range cases {
		path := filepath.Join(dir, strings.ReplaceAll(tc.name, " ", "-")+".json")
		if err := os.WriteFile(path, tc.data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := ReadIslandCheckpointFile(path)
		if !errors.Is(err, ErrCheckpointCorrupt) || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: err = %v, want ErrCheckpointCorrupt with %q", tc.name, err, tc.want)
		}
	}
	// The valid part reads back, and a campaign does not resume from it.
	path := filepath.Join(dir, "part.json")
	if err := part.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadIslandCheckpointFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ro := opt
	ro.Resume = loaded
	if _, err := Run(context.Background(), p, ro); err == nil || !strings.Contains(err.Error(), "partial checkpoint of islands [0,2) of 3") {
		t.Fatalf("Run resumed from a partial checkpoint: err = %v", err)
	}
}

// FuzzIslandCheckpointRoundTrip: any JSON that decodes into an island
// checkpoint must re-encode stably (marshal → unmarshal → marshal is a
// fixed point). Byte-stable serialization is what makes "the checkpoint
// trajectory is byte-identical" a meaningful cross-process contract.
// The validator must error or pass on it without panicking, and
// restoring a checkpoint it accepts must not panic either.
func FuzzIslandCheckpointRoundTrip(f *testing.F) {
	seed := &IslandCheckpoint{
		Format:  IslandCheckpointFormat,
		Version: IslandCheckpointVersion,
		Seed:    5, Islands: 1, MigrateEvery: 5, Migrants: 2,
		States: []*Checkpoint{{
			Seed: 5, GenotypeLen: 2, RNG: [4]uint64{1, 2, 3, 4}, Evaluations: 40,
			PopSize: 2, Generations: 10, NextGeneration: 5,
			Population:           [][]float64{{0.25, 0.5}, {0.1, 1e-9}},
			PopulationObjectives: []ExactVector{{0.25, 2}, {0.1, 3}},
			Archive:              [][]float64{{0.125, 1}},
			ArchiveObjectives:    []ExactVector{{0.125, 1}},
		}},
	}
	data, err := json.Marshal(seed)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Add([]byte(fmt.Sprintf(`{"format":%q,"version":%d,"states":[null]}`, IslandCheckpointFormat, IslandCheckpointVersion)))
	f.Add([]byte(`{"seed":-1,"islands":1000000}`))
	f.Add([]byte(`{`))
	// Non-finite objectives: a restore must carry them, not choke on them.
	nonFinite := roundTrip(f, seed)
	st := nonFinite.States[0]
	st.PopulationObjectives = []ExactVector{{math.Inf(1), math.Inf(-1)}, {math.NaN(), 0}}
	st.ArchiveObjectives = []ExactVector{{math.Inf(-1), math.NaN()}}
	if data, err = json.Marshal(nonFinite); err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	// Objective vectors of unequal length inside one file.
	ragged := roundTrip(f, seed)
	ragged.States[0].ArchiveObjectives = []ExactVector{{0.125}}
	if data, err = json.Marshal(ragged); err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Fuzz(func(t *testing.T, data []byte) {
		cp := &IslandCheckpoint{}
		if err := json.Unmarshal(data, cp); err != nil {
			return // not a checkpoint; nothing to round-trip
		}
		out, err := json.Marshal(cp)
		if err != nil {
			t.Fatalf("marshal decoded checkpoint: %v", err)
		}
		cp2 := &IslandCheckpoint{}
		if err := json.Unmarshal(out, cp2); err != nil {
			t.Fatalf("re-decode own encoding: %v", err)
		}
		out2, err := json.Marshal(cp2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out, out2) {
			t.Fatalf("round trip unstable:\n%s\n%s", out, out2)
		}
		if cp.validate() != nil {
			return
		}
		st := cp.States[0]
		if cp.Islands > 8 || st.PopSize > 64 {
			return // too big to restore here
		}
		opt := Options{
			PopSize: st.PopSize, Generations: st.Generations, Seed: cp.Seed,
			Islands: cp.Islands, MigrateEvery: cp.MigrateEvery, Migrants: cp.Migrants,
			ArchiveEpsilon: st.ArchiveEpsilon,
		}
		_, _ = MergeIslandCheckpoint(context.Background(), zdt1{n: 2}, opt, cp) // may fail, must not panic
	})
}
