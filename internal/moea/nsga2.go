package moea

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"time"

	"repro/internal/obs"
)

// errEmptyGenotype rejects problems whose genotype has no genes.
var errEmptyGenotype = errors.New("moea: problem has empty genotype")

// Problem is the optimization problem seen by NSGA-II: a genotype
// length and an evaluation function mapping a genotype to (minimized)
// objectives plus an optional payload.
//
// The evaluation pool calls Evaluate with a stable worker index in
// [0, workers) (0 in serial mode), so the problem can pin expensive
// scratch (a decoder state, a solver) to the worker for the lifetime
// of the run instead of paying a pool checkout per evaluation — and
// instead of re-allocating the scratch whenever a GC cycle empties a
// sync.Pool mid-campaign. Evaluate must be a pure function of the
// genotype: the result must not depend on the worker index, on which
// worker evaluates which genotype, or on evaluation order. That
// contract is what keeps fronts byte-identical at every worker count.
type Problem interface {
	GenotypeLen() int
	Evaluate(worker int, genotype []float64) (Objectives, any)
}

// Options configure an NSGA-II run.
type Options struct {
	PopSize     int
	Generations int
	Seed        int64
	// Workers > 1 evaluates each generation's individuals concurrently
	// on that many goroutines. Problem.Evaluate must then be safe for
	// concurrent use. Results are deterministic: genotype generation
	// stays sequential and evaluation order does not influence it.
	Workers int
	// ArchiveEpsilon, when non-empty, thins the all-time archive by
	// ε-dominance: objective k is quantized to boxes of width
	// ArchiveEpsilon[k] (0 = no quantization for that objective) and at
	// most one representative per non-dominated box is kept. Bounds the
	// archive the way practical DSE tools do; the paper reports 176
	// Pareto implementations from 100,000 evaluations.
	ArchiveEpsilon []float64
	// Islands is the number of independent populations (default 1). Each
	// island runs these options with a seed derived from (Seed, island);
	// island 0 keeps Seed, so one island is the classic single-population
	// run. All islands share one evaluation pool of Workers goroutines.
	Islands int
	// MigrateEvery is the epoch length in generations (default 10): after
	// every epoch except the final one, each island sends Migrants archive
	// representatives (default 4, capped at half the receiving
	// population) to its ring successor.
	MigrateEvery int
	Migrants     int
	// OnGeneration, when non-nil, is called after every generation with
	// the generation index and the current archive (the island-order
	// merge of the island archives; read-only).
	OnGeneration func(gen int, archive []*Individual)
	// OnProgress, when non-nil, receives a telemetry sample after every
	// generation. It runs on the optimizer goroutine; keep it cheap.
	OnProgress func(Progress)
	// Resume, when non-nil, restores the campaign from a checkpoint
	// instead of sampling fresh initial populations. The checkpoint must
	// match the problem and options (genotype length, island topology,
	// population size, generation count, seed, ε-archive).
	Resume *IslandCheckpoint
	// OnCheckpoint, when non-nil, receives a campaign snapshot every
	// CheckpointEvery generations (after that generation's migration) and
	// once more when the context is cancelled. A non-nil return aborts
	// the run with that error.
	OnCheckpoint func(*IslandCheckpoint) error
	// CheckpointEvery is the generation period of OnCheckpoint calls
	// (0 = only on cancellation).
	CheckpointEvery int
	// Obs, when non-nil, times each generation step (and, via the
	// problem, finer stages) on the observability tracer. Purely
	// observational: it never touches RNG state or evaluation order, and
	// a nil tracer costs one nil check per generation.
	Obs *obs.Tracer
}

// The variation operators' rates: crossoverRate is the per-pair
// probability of uniform crossover, and mutationStep the half-width of
// the jitter a mutated gene receives (with probability ½ it is
// resampled uniformly instead, keeping global exploration alive). The
// per-gene mutation probability is 1/GenotypeLen.
const (
	crossoverRate = 0.9
	mutationStep  = 0.15
)

func (o Options) withDefaults() Options {
	if o.PopSize <= 0 {
		o.PopSize = 64
	}
	if o.PopSize%2 == 1 {
		o.PopSize++
	}
	if o.Generations <= 0 {
		o.Generations = 50
	}
	if o.Islands < 1 {
		o.Islands = 1
	}
	if o.MigrateEvery <= 0 {
		o.MigrateEvery = 10
	}
	if o.Migrants <= 0 {
		o.Migrants = 4
	}
	return o
}

// Result carries the outcome of a run.
type Result struct {
	// Archive is the all-time non-dominated set.
	Archive []*Individual
	// Evaluations counts Problem.Evaluate calls.
	Evaluations int
}

// nsga2 is one island of the optimizer: construction samples (or
// resumes) the initial population, step() advances one generation, and
// snapshot() captures resumable state. Run and EpochStep drive one or
// more instances over a shared evaluation pool.
type nsga2 struct {
	p      Problem
	opt    Options
	genLen int
	src    *prng
	rng    *rand.Rand
	pool   *evalPool

	pop, archive []*Individual
	gen          int // next generation index
	evals        int // cumulative Problem.Evaluate count (across resumes)
	runEvals     int // evaluations performed by this process

	// sorter is the sort's and crowding's memory. ranked is the
	// population the last step ranked, as it left it: while pop is
	// element for element the same, its members still carry the ranks
	// and crowding distances a sort of it would assign. spare, union and
	// genos are the step's other buffers, reused every step.
	sorter       frontSorter
	ranked       []*Individual
	spare, union []*Individual
	genos        [][]float64
}

// newNSGA2 builds a stepping optimizer, restored from resume when it is
// non-nil. The pool is borrowed, not owned: the caller creates it for
// the run and closes it afterwards, which is what hoists worker-pool
// construction out of the per-batch (per-generation) loop; restoring
// evaluates nothing, so a restored optimizer that never steps needs no
// pool (nil). opt must already carry defaults, and resume must have
// passed IslandCheckpoint.check against opt.
func newNSGA2(p Problem, opt Options, resume *Checkpoint, pool *evalPool) (*nsga2, error) {
	genLen := p.GenotypeLen()
	if genLen <= 0 {
		return nil, errEmptyGenotype
	}
	s := &nsga2{p: p, opt: opt, genLen: genLen, src: newPRNG(opt.Seed), pool: pool}
	s.rng = rand.New(s.src)

	if cp := resume; cp != nil {
		if err := cp.check(genLen); err != nil {
			return nil, err
		}
		if err := s.src.setState(cp.RNG); err != nil {
			return nil, err
		}
		// Zip the stored genotypes and objective vectors back together:
		// restoring evaluates nothing. The archive is re-inserted in
		// checkpoint order without re-filtering: its entries are mutually
		// non-dominated by construction.
		s.pop = restoreIndividuals(cp.Population, cp.PopulationObjectives)
		s.archive = restoreIndividuals(cp.Archive, cp.ArchiveObjectives)
		s.evals = cp.Evaluations
		s.gen = cp.NextGeneration
		return s, nil
	}

	initial := make([][]float64, opt.PopSize)
	for i := range initial {
		g := make([]float64, genLen)
		for j := range g {
			g[j] = s.rng.Float64()
		}
		initial[i] = g
	}
	s.pop = s.evaluateBatch(initial)
	s.archive = updateArchive(nil, s.pop, opt.ArchiveEpsilon)
	return s, nil
}

func (s *nsga2) evaluateBatch(genos [][]float64) []*Individual {
	out := s.pool.evaluate(genos)
	s.evals += len(genos)
	s.runEvals += len(genos)
	return out
}

// step advances the optimizer by one generation: tournament breeding
// (sequential, one PRNG stream), batch evaluation on the pool,
// environmental selection and the serial archive fold. The archive is
// touched only here, on the stepping goroutine, in offspring index
// order — workers never contend on it. It fails when the offspring's
// objective vectors differ in length from the population's, which only
// a checkpoint of another problem can cause.
func (s *nsga2) step() error {
	opt := s.opt
	sp := opt.Obs.Start(obs.StageGeneration)
	defer sp.End()
	// Rank parents for tournament selection, unless the previous step
	// left them ranked: migration, a resume or any other edit of the
	// population makes it differ from ranked and sorts it again.
	if !slices.Equal(s.pop, s.ranked) {
		for _, f := range s.sorter.sort(s.pop) {
			s.sorter.crowding(f)
		}
	}
	// Breed the whole offspring batch sequentially (rng order), then
	// evaluate it, possibly in parallel.
	genos := s.genos[:0]
	mutationRate := 1.0 / float64(s.genLen)
	for len(genos) < opt.PopSize {
		p1 := tournament(s.rng, s.pop)
		p2 := tournament(s.rng, s.pop)
		c1, c2 := crossover(s.rng, p1.Genotype, p2.Genotype, crossoverRate)
		mutate(s.rng, c1, mutationRate, mutationStep)
		mutate(s.rng, c2, mutationRate, mutationStep)
		genos = append(genos, c1)
		if len(genos) < opt.PopSize {
			genos = append(genos, c2)
		}
	}
	s.genos = genos
	offspring := s.evaluateBatch(genos)
	if got, want := len(offspring[0].Objectives), len(s.pop[0].Objectives); got != want {
		return fmt.Errorf("moea: problem yields %d objectives, the restored population has %d", got, want)
	}
	// Environmental selection over parents ∪ offspring. The survivors
	// are whole fronts plus part of one, so their ranks are the union's,
	// and so is the crowding of every whole front: a sort of the new
	// population puts each whole front's members in the same order. Only
	// the truncated front's survivors get their crowding recomputed.
	s.union = append(append(s.union[:0], s.pop...), offspring...)
	fronts := s.sorter.sort(s.union)
	next := s.spare[:0]
	for k, f := range fronts {
		s.sorter.crowding(f)
		if len(next)+len(f) <= opt.PopSize {
			next = append(next, f...)
			continue
		}
		// Partial front: take the most crowded-distant first.
		sortByCrowdingDesc(f)
		kept := f[:opt.PopSize-len(next)]
		next = append(next, kept...)
		var prev []*Individual
		if k > 0 {
			prev = fronts[k-1]
		}
		s.sorter.recrowd(prev, kept)
		break
	}
	s.spare, s.pop = s.pop, next
	// A NaN objective can form a dominance cycle, which a subset may
	// break: then the next step sorts the population in full.
	s.ranked = s.ranked[:0]
	if !s.sorter.nan {
		s.ranked = append(s.ranked, next...)
	}
	s.archive = updateArchive(s.archive, offspring, opt.ArchiveEpsilon)
	s.gen++
	return nil
}

// snapshot captures the resumable optimizer state; the run continues at
// generation s.gen.
func (s *nsga2) snapshot() *Checkpoint {
	return &Checkpoint{
		Seed:                 s.opt.Seed,
		GenotypeLen:          s.genLen,
		RNG:                  s.src.state(),
		Evaluations:          s.evals,
		PopSize:              s.opt.PopSize,
		Generations:          s.opt.Generations,
		NextGeneration:       s.gen,
		ArchiveEpsilon:       s.opt.ArchiveEpsilon,
		Population:           genotypes(s.pop),
		PopulationObjectives: objectiveVectors(s.pop),
		Archive:              genotypes(s.archive),
		ArchiveObjectives:    objectiveVectors(s.archive),
	}
}

// injectMigrants replaces the worst individuals of pop with copies of
// the migrants (island-model migration). "Worst" is the inverse of the
// crowded-comparison order — highest rank first, lowest crowding first,
// ties broken by population index — so the replacement set is a pure
// function of (genotypes, objectives, population order): Run and the
// multi-process orchestrator performing the same
// migration on deserialized state produce identical populations. At
// most half the population is replaced.
func injectMigrants(pop, migrants []*Individual) {
	k := len(migrants)
	if k > len(pop)/2 {
		k = len(pop) / 2
	}
	if k == 0 {
		return
	}
	fronts := sortFronts(pop)
	for _, f := range fronts {
		assignCrowding(f)
	}
	idx := make([]int, len(pop))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		ia, ib := pop[idx[a]], pop[idx[b]]
		if ia.rank != ib.rank {
			return ia.rank > ib.rank
		}
		return ia.crowding < ib.crowding
	})
	for j := 0; j < k; j++ {
		m := migrants[j]
		pop[idx[j]] = &Individual{
			Genotype:   append([]float64(nil), m.Genotype...),
			Objectives: append(Objectives(nil), m.Objectives...),
			Payload:    m.Payload,
		}
	}
}

// Run executes an NSGA-II campaign of opt.Islands populations (one by
// default), each running opt with its derived seed (IslandSeed). The
// campaign advances generation by generation: in every generation each
// island still at that generation steps, in island order. When the next
// generation is a multiple of MigrateEvery and not the last, each island
// sends its migrants to its ring successor (migrateRing). Then
// OnGeneration and OnProgress see the merged archive, and every
// CheckpointEvery generations OnCheckpoint receives a snapshot.
//
// Determinism: islands evolve independently and evaluation is a pure
// function of the genotype, so for a fixed (Seed, Islands, MigrateEvery,
// Migrants) tuple the merged front is bit-identical at any worker count.
//
// Cancellation is honored before every island step: the run stops,
// emits a final checkpoint through OnCheckpoint (if set), and returns
// the partial Result with ctx.Err(). Resuming from any emitted
// checkpoint continues to a byte-identical front. No goroutines outlive
// the call — the evaluation pool is created once for the run and
// released before returning.
func Run(ctx context.Context, p Problem, opt Options) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	opt = opt.withDefaults()
	if opt.Resume != nil {
		if err := opt.Resume.check(opt); err != nil {
			return nil, err
		}
	}
	pool := newEvalPool(p, opt.Workers)
	defer pool.close()
	states, err := buildIslandStates(p, opt, opt.Resume, 0, opt.Islands, pool)
	if err != nil {
		return nil, err
	}
	snapshot := func() *IslandCheckpoint { return snapshotIslands(states, opt, 0) }
	start := time.Now()

	err = advance(ctx, states, opt.Generations, func(gen int) error {
		next := gen + 1
		if next < opt.Generations && next%opt.MigrateEvery == 0 && opt.Islands > 1 {
			sp := opt.Obs.Start(obs.StageMigration)
			pops := make([][]*Individual, len(states))
			archives := make([][]*Individual, len(states))
			for i, s := range states {
				pops[i], archives[i] = s.pop, s.archive
			}
			migrateRing(pops, archives, opt.Migrants)
			sp.End()
		}
		if opt.OnGeneration != nil || opt.OnProgress != nil {
			archive := mergeIslandArchives(states, opt.ArchiveEpsilon)
			if opt.OnGeneration != nil {
				opt.OnGeneration(gen, archive)
			}
			if opt.OnProgress != nil {
				pr := Progress{Generation: gen, Generations: opt.Generations, Archive: archive, Elapsed: time.Since(start)}
				for _, s := range states {
					pr.Evaluations += s.evals
					pr.RunEvaluations += s.runEvals
				}
				opt.OnProgress(pr)
			}
		}
		if opt.OnCheckpoint != nil && opt.CheckpointEvery > 0 &&
			next%opt.CheckpointEvery == 0 && next < opt.Generations {
			return opt.OnCheckpoint(snapshot())
		}
		return nil
	})
	if err != nil && err == ctx.Err() && opt.OnCheckpoint != nil {
		if cerr := opt.OnCheckpoint(snapshot()); cerr != nil {
			err = cerr
		}
	}
	return islandResult(states, opt.ArchiveEpsilon), err
}

// advance is the generation loop of every driver. It steps the islands
// until each has reached generation end: for each generation g, every
// island still at g steps, in island order, with a context check before
// each step; then after(g) runs. Islands ahead of g (a checkpoint taken
// mid-generation) wait for the others, so a resumed campaign follows
// the uninterrupted schedule exactly. It returns ctx.Err() on
// cancellation or the first error from a step or from after.
func advance(ctx context.Context, states []*nsga2, end int, after func(gen int) error) error {
	gen := end
	for _, s := range states {
		gen = min(gen, s.gen)
	}
	for ; gen < end; gen++ {
		for _, s := range states {
			if s.gen != gen {
				continue
			}
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := s.step(); err != nil {
				return err
			}
		}
		if after != nil {
			if err := after(gen); err != nil {
				return err
			}
		}
	}
	return nil
}

// tournament returns the better of two random individuals by
// (rank, crowding) — the standard crowded comparison operator.
func tournament(rng *rand.Rand, pop []*Individual) *Individual {
	a := pop[rng.Intn(len(pop))]
	b := pop[rng.Intn(len(pop))]
	if a.rank != b.rank {
		if a.rank < b.rank {
			return a
		}
		return b
	}
	if a.crowding > b.crowding {
		return a
	}
	return b
}

// crossover performs uniform crossover with the given probability;
// otherwise both children are copies.
func crossover(rng *rand.Rand, a, b []float64, rate float64) ([]float64, []float64) {
	c1 := append([]float64(nil), a...)
	c2 := append([]float64(nil), b...)
	if rng.Float64() < rate {
		for i := range c1 {
			if rng.Intn(2) == 0 {
				c1[i], c2[i] = c2[i], c1[i]
			}
		}
	}
	return c1, c2
}

// mutate perturbs genes in place: with probability rate per gene, the
// gene is either jittered by ±step (clamped to [0,1]) or resampled
// uniformly (50/50).
func mutate(rng *rand.Rand, g []float64, rate, step float64) {
	for i := range g {
		if rng.Float64() >= rate {
			continue
		}
		if rng.Intn(2) == 0 {
			g[i] = rng.Float64()
		} else {
			g[i] += (rng.Float64()*2 - 1) * step
			if g[i] < 0 {
				g[i] = 0
			}
			if g[i] > 1 {
				g[i] = 1
			}
		}
	}
}

// updateArchive merges new individuals into the all-time non-dominated
// archive incrementally: each candidate is compared against the current
// archive only (O(|batch|·|archive|) instead of re-filtering the whole
// union), dropping dominated or duplicate candidates and evicting
// archive entries the candidate dominates. When eps is set, candidates
// and archive entries are compared on ε-box coordinates, so at most one
// representative survives per non-dominated ε-box.
func updateArchive(archive, batch []*Individual, eps []float64) []*Individual {
	for _, cand := range batch {
		cb := epsBox(cand.Objectives, eps)
		dominated := false
		for _, a := range archive {
			ab := epsBox(a.Objectives, eps)
			if Dominates(ab, cb) || equalObjectives(ab, cb) {
				dominated = true
				break
			}
		}
		if dominated {
			continue
		}
		kept := archive[:0]
		for _, a := range archive {
			if !Dominates(cb, epsBox(a.Objectives, eps)) {
				kept = append(kept, a)
			}
		}
		archive = append(kept, cand)
	}
	return archive
}

// epsBox returns obj's ε-box coordinates, or obj itself when eps is
// unset (the allocation-free path).
func epsBox(obj Objectives, eps []float64) Objectives {
	if len(eps) == 0 {
		return obj
	}
	return quantize(obj, eps)
}

// quantize allocates obj's ε-box coordinates. It stays out of line:
// inlined into updateArchive's inner loops, the allocating loop slowed
// the no-ε path by about a fifth.
//
//go:noinline
func quantize(obj Objectives, eps []float64) Objectives {
	out := make(Objectives, len(obj))
	for k, v := range obj {
		out[k] = v
		if k < len(eps) && eps[k] > 0 {
			out[k] = epsFloor(v, eps[k])
		}
	}
	return out
}

// epsFloor quantizes v down to a multiple of eps, mapping non-finite
// values to themselves.
func epsFloor(v, eps float64) float64 {
	if v != v || v > 1e300 || v < -1e300 {
		return v
	}
	return eps * float64(int64(v/eps))
}

func sortByCrowdingDesc(f []*Individual) {
	for i := 1; i < len(f); i++ {
		for j := i; j > 0 && f[j].crowding > f[j-1].crowding; j-- {
			f[j], f[j-1] = f[j-1], f[j]
		}
	}
}
