package moea

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestSortFrontsHeavyTies checks the sort at the population size of a
// 128-individual NSGA-II union against the two-call oracle: 256
// individuals drawn from three values per objective, so ties and whole
// duplicate vectors are the rule, salted with ±Inf, and in some rounds
// with NaN to take the pairwise pass. Ranks, fronts and every front's
// member order must agree. One sorter serves every round, as one serves
// every step of a run.
func TestSortFrontsHeavyTies(t *testing.T) {
	values := []float64{0, 1, 2, math.Inf(1), math.Inf(-1), math.NaN()}
	rng := rand.New(rand.NewSource(23))
	var s frontSorter
	for round := 0; round < 60; round++ {
		n := 256 - rng.Intn(3)*64 // 256, 192 or 128: the buffers shrink and grow
		m := 2 + round%3
		salt := round % 4 // 0: finite values only; 3: NaN too
		pop := make([]*Individual, n)
		for i := range pop {
			if i > 0 && rng.Intn(4) == 0 {
				pop[i] = &Individual{Objectives: slices.Clone(pop[rng.Intn(i)].Objectives)}
				continue
			}
			obj := make(Objectives, m)
			for k := range obj {
				switch {
				case salt >= 2 && rng.Intn(20) == 0:
					obj[k] = values[3+rng.Intn(salt)] // ±Inf, or NaN when salt is 3
				default:
					obj[k] = values[rng.Intn(3)]
				}
			}
			pop[i] = &Individual{Objectives: obj}
		}
		want := refSortFronts(pop)
		wantRank := make([]int, n)
		for i, ind := range pop {
			wantRank[i], ind.rank = ind.rank, -1
		}
		got := s.sort(pop)
		if s.nan != hasNaN(pop) {
			t.Fatalf("round %d: nan flag %v", round, s.nan)
		}
		for i, ind := range pop {
			if ind.rank != wantRank[i] {
				t.Fatalf("round %d: individual %d %v rank %d, oracle %d", round, i, ind.Objectives, ind.rank, wantRank[i])
			}
		}
		if len(got) != len(want) {
			t.Fatalf("round %d: %d fronts, oracle %d", round, len(got), len(want))
		}
		for f := range want {
			if !slices.Equal(got[f], want[f]) {
				t.Fatalf("round %d: front %d members differ from the oracle's in set or order", round, f)
			}
		}
	}
}

// gridProblem has three objectives on a coarse grid of the given
// number of levels per gene, so a population holds many fronts, tied
// objective values and duplicate vectors — the cases where crowding
// depends on member order.
type gridProblem struct{ levels float64 }

func (gridProblem) GenotypeLen() int { return 4 }

func (p gridProblem) Evaluate(_ int, g []float64) (Objectives, any) {
	q := func(v float64) float64 { return math.Floor(v * p.levels) }
	return Objectives{q(g[0]) + q(g[3]), q(1-g[0]) + q(g[1]), q(g[2]) + q(1-g[1])}, nil
}

// checkCarried reports whether the step about to run carries the
// population's ranks and crowding distances instead of sorting, and if
// so checks them bit for bit against a fresh sort of the population.
func checkCarried(t *testing.T, s *nsga2, label string, gen int) bool {
	t.Helper()
	if !slices.Equal(s.pop, s.ranked) {
		return false
	}
	type rankCrowd struct {
		rank     int
		crowding uint64
	}
	carried := make([]rankCrowd, len(s.pop))
	for i, ind := range s.pop {
		carried[i] = rankCrowd{ind.rank, math.Float64bits(ind.crowding)}
	}
	for _, f := range sortFronts(s.pop) {
		assignCrowding(f)
	}
	for i, ind := range s.pop {
		if fresh := (rankCrowd{ind.rank, math.Float64bits(ind.crowding)}); fresh != carried[i] {
			t.Fatalf("%s, generation %d: individual %d carries rank %d crowding %v, a fresh sort gives %d, %v",
				label, gen, i, carried[i].rank, math.Float64frombits(carried[i].crowding), fresh.rank, ind.crowding)
		}
	}
	return true
}

// TestCarriedRanksMatchFreshSort drives campaigns generation by
// generation the way Run does, and before every step that skips the
// parent sort checks the carried ranks and crowding against a fresh
// sort: a plain run, an island run whose migrations force full sorts,
// and a run resumed from a checkpoint. The archives must match Run's,
// so the drive is Run's trajectory.
func TestCarriedRanksMatchFreshSort(t *testing.T) {
	var mid *IslandCheckpoint
	type campaign struct {
		label string
		p     Problem
		opt   Options
	}
	cases := []campaign{{"zdt1", zdt1{n: 10}, Options{PopSize: 32, Generations: 30, Seed: 11}}}
	for levels := 2; levels <= 5; levels++ {
		for seed := int64(1); seed <= 5; seed++ {
			cases = append(cases, campaign{fmt.Sprintf("grid %d seed %d", levels, seed),
				gridProblem{float64(levels)}, Options{PopSize: 64, Generations: 30, Seed: seed, Workers: int(seed % 3)}})
		}
	}
	cases = append(cases,
		campaign{"grid islands", gridProblem{5}, Options{PopSize: 32, Generations: 30, Seed: 5, Islands: 3, MigrateEvery: 4, Migrants: 3}},
		campaign{"grid resumed", gridProblem{5}, Options{PopSize: 64, Generations: 40, Seed: 3, CheckpointEvery: 15,
			OnCheckpoint: func(cp *IslandCheckpoint) error {
				if mid == nil {
					mid = cp
				}
				return nil
			}}})
	for _, c := range cases {
		want, err := Run(context.Background(), c.p, c.opt)
		if err != nil {
			t.Fatal(err)
		}
		opt := c.opt
		if c.label == "grid resumed" {
			if mid == nil {
				t.Fatal("no checkpoint to resume from")
			}
			opt.Resume, opt.OnCheckpoint = mid, nil
		}
		opt = opt.withDefaults()
		pool := newEvalPool(c.p, opt.Workers)
		states, err := buildIslandStates(c.p, opt, opt.Resume, 0, opt.Islands, pool)
		if err != nil {
			t.Fatal(err)
		}
		carried, sorted := 0, 0
		check := func(gen int) {
			for _, s := range states {
				if checkCarried(t, s, c.label, gen) {
					carried++
				} else {
					sorted++
				}
			}
		}
		check(-1)
		err = advance(context.Background(), states, opt.Generations, func(gen int) error {
			if next := gen + 1; next < opt.Generations && next%opt.MigrateEvery == 0 && opt.Islands > 1 {
				pops := make([][]*Individual, len(states))
				archives := make([][]*Individual, len(states))
				for i, s := range states {
					pops[i], archives[i] = s.pop, s.archive
				}
				migrateRing(pops, archives, opt.Migrants)
			}
			if gen+1 < opt.Generations {
				check(gen)
			}
			return nil
		})
		pool.close()
		if err != nil {
			t.Fatal(err)
		}
		if got := archiveDigest(mergeIslandArchives(states, opt.ArchiveEpsilon)); got != archiveDigest(want.Archive) {
			t.Fatalf("%s: the checked drive left Run's trajectory", c.label)
		}
		if carried == 0 || sorted == 0 {
			t.Fatalf("%s: %d steps carried their ranks and %d sorted; want both", c.label, carried, sorted)
		}
	}
}

// TestStepSteadyStateAllocs pins the allocations of one warmed-up
// serial NSGA-II step exactly: per offspring its genotype, its
// Individual and the problem's objective vector, plus the batch's
// output slice. The sort, crowding, selection and the step's own
// buffers come from memory the optimizer reuses, and the archive no
// longer changes once the grid's front is found. A sort that builds
// per-individual lists, or a population slice made per step, fails it.
func TestStepSteadyStateAllocs(t *testing.T) {
	const pop = 64
	p := gridProblem{5}
	pool := newEvalPool(p, 1)
	defer pool.close()
	s, err := newNSGA2(p, Options{PopSize: pop, Seed: 7}.withDefaults(), nil, pool)
	if err != nil {
		t.Fatal(err)
	}
	for range 60 {
		s.step()
	}
	archive := len(s.archive)
	got := testing.AllocsPerRun(20, func() { s.step() })
	if len(s.archive) != archive {
		t.Fatalf("archive changed from %d to %d members while measuring", archive, len(s.archive))
	}
	const want = 3*pop + 1
	if got != want {
		t.Fatalf("a step allocates %.0f times, want %d", got, want)
	}
}
