package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/casestudy"
	"repro/internal/model"
	"repro/internal/moea"
	"repro/internal/objective"
)

func smallSpec(t *testing.T) *model.Specification {
	t.Helper()
	spec, err := casestudy.Small(3, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestGreedyDecoderFeasibleForRandomGenotypes(t *testing.T) {
	spec, err := casestudy.Build(casestudy.Options{ProfilesPerECU: 36})
	if err != nil {
		t.Fatal(err)
	}
	dec, err := NewGreedyDecoder(spec)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for round := 0; round < 200; round++ {
		g := make([]float64, dec.GenotypeLen())
		for i := range g {
			g[i] = rng.Float64()
		}
		x, err := dec.Decode(g)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if errs := x.Check(); len(errs) != 0 {
			t.Fatalf("round %d: infeasible: %v", round, errs)
		}
	}
}

func TestGreedyDecoderDeterministic(t *testing.T) {
	spec := smallSpec(t)
	dec, err := NewGreedyDecoder(spec)
	if err != nil {
		t.Fatal(err)
	}
	g := make([]float64, dec.GenotypeLen())
	for i := range g {
		g[i] = float64(i) / float64(len(g))
	}
	a, err := dec.Decode(g)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := dec.Decode(g)
	for _, m := range a.Binding.Mappings() {
		if b.Binding.Get(m.Task) != m.Resource {
			t.Fatalf("binding of %s differs", m.Task)
		}
	}
}

func TestGreedyDecoderRejectsWrongLength(t *testing.T) {
	dec, err := NewGreedyDecoder(smallSpec(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dec.Decode([]float64{0.5}); err == nil {
		t.Fatal("wrong-length genotype accepted")
	}
}

func TestGreedyStorageOverride(t *testing.T) {
	spec := smallSpec(t)
	for _, mode := range []int{1, -1} {
		dec, err := NewGreedyDecoder(spec)
		if err != nil {
			t.Fatal(err)
		}
		dec.StorageChoice = mode
		// Force BIST on everywhere: profile genes high.
		g := make([]float64, dec.GenotypeLen())
		for i := range g {
			g[i] = 0.99
		}
		x, err := dec.Decode(g)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range x.Binding.Mappings() {
			tid, r := m.Task, m.Resource
			task := spec.App.Task(tid)
			if task == nil || task.Kind != model.KindBISTData {
				continue
			}
			if mode == 1 && r == spec.Gateway {
				t.Fatal("local override stored at gateway")
			}
			if mode == -1 && r != spec.Gateway {
				t.Fatalf("gateway override stored at %s", r)
			}
		}
	}
}

func TestSATDecoderOnSmallSpec(t *testing.T) {
	spec := smallSpec(t)
	dec, err := NewSATDecoder(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for round := 0; round < 10; round++ {
		g := make([]float64, dec.GenotypeLen())
		for i := range g {
			g[i] = rng.Float64()
		}
		x, err := dec.Decode(g)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if errs := x.Check(); len(errs) != 0 {
			t.Fatalf("round %d: infeasible: %v", round, errs)
		}
	}
}

func TestExplorerRunProducesPareto(t *testing.T) {
	spec := smallSpec(t)
	dec, err := NewGreedyDecoder(spec)
	if err != nil {
		t.Fatal(err)
	}
	ex := NewExplorer(spec, dec)
	ex.Verify = true
	res, err := ex.Run(moea.Options{PopSize: 24, Generations: 20, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluations != 24+24*20 {
		t.Fatalf("evaluations = %d", res.Evaluations)
	}
	if res.DecodeFailures != 0 {
		t.Fatalf("decode failures = %d", res.DecodeFailures)
	}
	if len(res.Solutions) < 3 {
		t.Fatalf("only %d Pareto solutions", len(res.Solutions))
	}
	// Mutually non-dominated in the three objectives.
	for i, a := range res.Solutions {
		for j, b := range res.Solutions {
			if i == j {
				continue
			}
			if moea.Dominates(moea.Objectives(a.Objectives.Minimized()), moea.Objectives(b.Objectives.Minimized())) {
				t.Fatalf("solution %d dominates %d", i, j)
			}
		}
	}
	// Sorted by cost.
	for i := 1; i < len(res.Solutions); i++ {
		if res.Solutions[i].Objectives.CostTotal < res.Solutions[i-1].Objectives.CostTotal {
			t.Fatal("solutions not sorted by cost")
		}
	}
	// The front must span the quality axis: a no-BIST (or near-zero
	// quality) point and a high-quality point.
	minQ, maxQ := 1.0, 0.0
	for _, s := range res.Solutions {
		if s.Objectives.TestQuality < minQ {
			minQ = s.Objectives.TestQuality
		}
		if s.Objectives.TestQuality > maxQ {
			maxQ = s.Objectives.TestQuality
		}
	}
	if maxQ < 0.5 {
		t.Fatalf("no high-quality solution found (max %v)", maxQ)
	}
}

func TestSplitByShutOff(t *testing.T) {
	spec := smallSpec(t)
	dec, err := NewGreedyDecoder(spec)
	if err != nil {
		t.Fatal(err)
	}
	ex := NewExplorer(spec, dec)
	res, err := ex.Run(moea.Options{PopSize: 24, Generations: 15, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	fast, slow := res.SplitByShutOff(20_000)
	if len(fast)+len(slow) != len(res.Solutions) {
		t.Fatal("split lost solutions")
	}
	for _, s := range fast {
		if s.Objectives.ShutOffMS > 20_000 {
			t.Fatal("fast bucket contains slow solution")
		}
	}
	for _, s := range slow {
		if s.Objectives.ShutOffMS <= 20_000 {
			t.Fatal("slow bucket contains fast solution")
		}
	}
}

func TestBestQualityWithinAndBaseline(t *testing.T) {
	spec := smallSpec(t)
	dec, err := NewGreedyDecoder(spec)
	if err != nil {
		t.Fatal(err)
	}
	ex := NewExplorer(spec, dec)
	res, err := ex.Run(moea.Options{PopSize: 32, Generations: 25, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	base := res.BaselineCost()
	if base <= 0 || math.IsInf(base, 1) {
		t.Fatalf("baseline = %v", base)
	}
	sol, ok := res.BestQualityWithin(base, 0.10)
	if !ok {
		t.Fatal("no solution within 10% of baseline")
	}
	if sol.Objectives.CostTotal > base*1.10 {
		t.Fatalf("cost %v exceeds budget", sol.Objectives.CostTotal)
	}
}

func TestMemorySplitOf(t *testing.T) {
	spec := smallSpec(t)
	dec, err := NewGreedyDecoder(spec)
	if err != nil {
		t.Fatal(err)
	}
	// All BIST on, all storage at gateway.
	dec.StorageChoice = -1
	g := make([]float64, dec.GenotypeLen())
	for i := range g {
		g[i] = 0.99
	}
	x, err := dec.Decode(g)
	if err != nil {
		t.Fatal(err)
	}
	sol := Solution{Impl: x}
	ms := MemorySplitOf(sol)
	if ms.GatewayBytes == 0 || ms.DistributedBytes != 0 {
		t.Fatalf("split = %+v, want all gateway", ms)
	}
	// Flip to local.
	dec.StorageChoice = 1
	x, err = dec.Decode(g)
	if err != nil {
		t.Fatal(err)
	}
	ms = MemorySplitOf(Solution{Impl: x})
	if ms.DistributedBytes == 0 || ms.GatewayBytes != 0 {
		t.Fatalf("split = %+v, want all distributed", ms)
	}
}

// TestStorageAblation reproduces the design insight of Fig. 6: with the
// same BIST profiles, gateway storage is cheaper but slower to shut
// off; local storage costs more memory money but shuts off fast.
func TestStorageAblation(t *testing.T) {
	spec := smallSpec(t)
	score := func(storage int) objective.Vector {
		dec, err := NewGreedyDecoder(spec)
		if err != nil {
			t.Fatal(err)
		}
		dec.StorageChoice = storage
		g := make([]float64, dec.GenotypeLen())
		for i := range g {
			g[i] = 0.99
		}
		x, err := dec.Decode(g)
		if err != nil {
			t.Fatal(err)
		}
		return objective.Evaluate(x)
	}
	local := score(1)
	gateway := score(-1)
	if gateway.CostTotal >= local.CostTotal {
		t.Fatalf("gateway storage not cheaper: %v vs %v", gateway.CostTotal, local.CostTotal)
	}
	if gateway.ShutOffMS <= local.ShutOffMS {
		t.Fatalf("gateway storage not slower: %v vs %v", gateway.ShutOffMS, local.ShutOffMS)
	}
}

// TestSATvsGreedyAgreeOnFeasibility is ablation A2's foundation: both
// decoders produce implementations the model checker accepts.
func TestSATvsGreedyAgreeOnFeasibility(t *testing.T) {
	spec := smallSpec(t)
	sat, err := NewSATDecoder(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	greedy, err := NewGreedyDecoder(spec)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(12))
	for round := 0; round < 5; round++ {
		gs := make([]float64, sat.GenotypeLen())
		for i := range gs {
			gs[i] = rng.Float64()
		}
		xs, err := sat.Decode(gs)
		if err != nil {
			t.Fatal(err)
		}
		gg := make([]float64, greedy.GenotypeLen())
		for i := range gg {
			gg[i] = rng.Float64()
		}
		xg, err := greedy.Decode(gg)
		if err != nil {
			t.Fatal(err)
		}
		if errs := xs.Check(); len(errs) != 0 {
			t.Fatalf("SAT decode infeasible: %v", errs)
		}
		if errs := xg.Check(); len(errs) != 0 {
			t.Fatalf("greedy decode infeasible: %v", errs)
		}
	}
}

// TestRunRandomBaseline: the random-search ablation produces a valid
// (smaller or equal quality) front with the same evaluation budget.
func TestRunRandomBaseline(t *testing.T) {
	spec := smallSpec(t)
	dec, err := NewGreedyDecoder(spec)
	if err != nil {
		t.Fatal(err)
	}
	ex := NewExplorer(spec, dec)
	rnd, err := ex.RunRandom(context.Background(), moea.RandomOptions{Evals: 500, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if rnd.Evaluations != 500 || len(rnd.Solutions) == 0 {
		t.Fatalf("random result: %d evals, %d solutions", rnd.Evaluations, len(rnd.Solutions))
	}
	nsga, err := ex.Run(moea.Options{PopSize: 20, Generations: 24, Seed: 3}) // 500 evals
	if err != nil {
		t.Fatal(err)
	}
	// NSGA-II should reach at least the quality random search finds.
	maxQ := func(r *Result) float64 {
		q := 0.0
		for _, s := range r.Solutions {
			if s.Objectives.TestQuality > q {
				q = s.Objectives.TestQuality
			}
		}
		return q
	}
	if maxQ(nsga) < maxQ(rnd)-0.05 {
		t.Fatalf("NSGA-II quality %.3f clearly below random %.3f", maxQ(nsga), maxQ(rnd))
	}
}

// TestParallelExplorationRaceFree runs the full case study with
// concurrent evaluation; `go test -race` guards the decoder and
// objective paths.
func TestParallelExplorationRaceFree(t *testing.T) {
	spec, err := casestudy.Build(casestudy.Options{ProfilesPerECU: 8})
	if err != nil {
		t.Fatal(err)
	}
	dec, err := NewGreedyDecoder(spec)
	if err != nil {
		t.Fatal(err)
	}
	ex := NewExplorer(spec, dec)
	ex.Verify = true
	seq, err := ex.Run(moea.Options{PopSize: 16, Generations: 6, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	par, err := ex.Run(moea.Options{PopSize: 16, Generations: 6, Seed: 2, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(seq.Solutions) != len(par.Solutions) {
		t.Fatalf("fronts differ: %d vs %d", len(seq.Solutions), len(par.Solutions))
	}
	for i := range seq.Solutions {
		if seq.Solutions[i].Objectives != par.Solutions[i].Objectives {
			t.Fatalf("solution %d differs between sequential and parallel run", i)
		}
	}
}

// TestExplorerWorkerSweepDeterministic is the acceptance gate for the
// pooled SAT decoder states: the same seed must produce the identical
// Pareto front at every worker count. Each worker checks a DecoderState
// out of the pool, so this sweep exercises reuse across distinct
// genotype streams.
func TestExplorerWorkerSweepDeterministic(t *testing.T) {
	spec, err := casestudy.Small(3, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := NewSATDecoder(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	ex := NewExplorer(spec, dec)
	ex.Verify = true
	var ref *Result
	for _, w := range []int{1, 2, 4} {
		res, err := ex.Run(moea.Options{PopSize: 16, Generations: 8, Seed: 11, Workers: w})
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if res.EvalsPerSec() <= 0 {
			t.Fatalf("workers=%d: throughput accounting missing (%v evals in %v)", w, res.Evaluations, res.Elapsed)
		}
		if ref == nil {
			ref = res
			continue
		}
		if len(res.Solutions) != len(ref.Solutions) {
			t.Fatalf("workers=%d: front size %d, want %d", w, len(res.Solutions), len(ref.Solutions))
		}
		for i := range res.Solutions {
			if res.Solutions[i].Objectives != ref.Solutions[i].Objectives {
				t.Fatalf("workers=%d: solution %d = %+v, want %+v",
					w, i, res.Solutions[i].Objectives, ref.Solutions[i].Objectives)
			}
		}
	}
}

// TestSATDecoderFullCaseStudy builds the complete constraint system of
// the paper's case study (reduced to 4 profiles per ECU) and decodes a
// few genotypes through the PB solver — the paper's own evaluation
// path, validated by the independent structural checker.
func TestSATDecoderFullCaseStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("large PB encoding")
	}
	spec, err := casestudy.Build(casestudy.Options{ProfilesPerECU: 4})
	if err != nil {
		t.Fatal(err)
	}
	dec, err := NewSATDecoder(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	st := dec.Enc.Stats()
	t.Logf("encoding: %d mapping vars, %d route vars, %d step vars, %d constraints (TMax %d)",
		st.MappingVars, st.RouteVars, st.StepVars, st.Constraints, st.TMax)
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 3; round++ {
		g := make([]float64, dec.GenotypeLen())
		for i := range g {
			g[i] = rng.Float64()
		}
		x, err := dec.Decode(g)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if errs := x.Check(); len(errs) != 0 {
			t.Fatalf("round %d: infeasible: %v", round, errs)
		}
	}
}
