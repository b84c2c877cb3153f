package core

import (
	"testing"

	"repro/internal/casestudy"
	"repro/internal/model"
	"repro/internal/moea"
	"repro/internal/objective"
)

// TestExplorerRunSteadyStateAllocs pins the dispatch overhead of the
// exploration loop: Explorer.Run must not construct a worker pool per
// batch (the pre-pool design spawned `workers` goroutines per
// generation and pushed every genotype through an unbuffered channel).
// With the greedy decoder on a small spec, the per-evaluation
// allocation budget is dominated by the decode itself; per-generation
// orchestration must stay a small constant on top. A per-batch pool
// rebuild or per-item channel dispatch blows past the bound
// immediately.
func TestExplorerRunSteadyStateAllocs(t *testing.T) {
	spec := smallSpec(t)
	dec, err := NewGreedyDecoder(spec)
	if err != nil {
		t.Fatal(err)
	}
	ex := NewExplorer(spec, dec)
	const pop, gens = 16, 12

	run := func(workers int) float64 {
		// One full Run per sample; AllocsPerRun averages over runs.
		return testing.AllocsPerRun(3, func() {
			if _, err := ex.Run(moea.Options{PopSize: pop, Generations: gens, Seed: 4, Workers: workers}); err != nil {
				t.Fatal(err)
			}
		})
	}

	serial := run(1)
	parallel := run(4)
	// The parallel run may cost a constant extra (pool construction,
	// four goroutine stacks, one job header per batch) but must not pay
	// a per-generation pool rebuild: allow the constant, reject a
	// per-generation term. 4 goroutines ≈ 10 allocs once; a rebuild
	// would add ≥ gens × that. Budget: constant 600 over serial (decoder
	// scratch for extra workers included), which a per-batch rebuild
	// (~12 gens × ~20 allocs for spawn+waitgroup+channels plus per-item
	// channel ops) exceeds.
	if parallel > serial+600 {
		t.Fatalf("parallel run allocates %.0f vs serial %.0f — per-batch pool construction is back", parallel, serial)
	}
}

// TestGreedyDecodeSteadyStateAllocs pins the greedy decoder's
// allocations on the full case study: a decode allocates the
// implementation (its allocation and binding maps and one routing
// list sized up front) and nothing per specification entity or per
// message. A decode that rescans the specification (the per-ECU profile
// lists, the mapping targets, the message list) fails the bound: the
// per-call decoder allocated 9,616 times for these 16 decodes, and the
// decoder that built one routing map per active message 2,300.
func TestGreedyDecodeSteadyStateAllocs(t *testing.T) {
	spec, err := casestudy.Build(casestudy.Options{})
	if err != nil {
		t.Fatal(err)
	}
	dec, err := NewGreedyDecoder(spec)
	if err != nil {
		t.Fatal(err)
	}
	genotypes := identityGenotypes(spec, dec.GenotypeLen())[:16]
	got := testing.AllocsPerRun(20, func() {
		for _, g := range genotypes {
			if _, err := dec.Decode(g); err != nil {
				t.Fatal(err)
			}
		}
	})
	t.Logf("%.0f allocs per 16 decodes", got)
	const want = 160
	if got > want {
		t.Fatalf("16 decodes allocate %.0f times, want at most %d", got, want)
	}
}

// TestEvaluateSteadyStateAllocs pins objective.Evaluate on decoded
// full-case-study implementations: the per-evaluation working memory
// comes from a pool and the cost pass visits only the bound BIST data
// tasks, so a warmed-up evaluation allocates nothing. A scratch that
// is rebuilt per call, or a sort that boxes its slice, fails the bound.
func TestEvaluateSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled evaluation scratch at random")
	}
	spec, err := casestudy.Build(casestudy.Options{})
	if err != nil {
		t.Fatal(err)
	}
	dec, err := NewGreedyDecoder(spec)
	if err != nil {
		t.Fatal(err)
	}
	var impls []*model.Implementation
	for _, g := range identityGenotypes(spec, dec.GenotypeLen())[:16] {
		x, err := dec.Decode(g)
		if err != nil {
			t.Fatal(err)
		}
		impls = append(impls, x)
	}
	got := testing.AllocsPerRun(20, func() {
		for _, x := range impls {
			objective.Evaluate(x)
		}
	})
	t.Logf("%.0f allocs per 16 evaluations", got)
	const want = 0
	if got > want {
		t.Fatalf("16 evaluations allocate %.0f times, want at most %d", got, want)
	}
}
