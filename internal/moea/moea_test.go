package moea

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDominates(t *testing.T) {
	cases := []struct {
		a, b Objectives
		want bool
	}{
		{Objectives{1, 1}, Objectives{2, 2}, true},
		{Objectives{1, 2}, Objectives{2, 1}, false},
		{Objectives{1, 1}, Objectives{1, 1}, false},
		{Objectives{1, 1}, Objectives{1, 2}, true},
		{Objectives{2, 2}, Objectives{1, 1}, false},
	}
	for _, c := range cases {
		if got := Dominates(c.a, c.b); got != c.want {
			t.Errorf("Dominates(%v,%v) = %v", c.a, c.b, got)
		}
	}
}

// TestParetoFilterProperties: the archive fold of a population
// (updateArchive from an empty archive) keeps a mutually non-dominated
// set, and every dropped point is dominated by (or duplicates) a kept
// point.
func TestParetoFilterProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		pop := make([]*Individual, n)
		for i := range pop {
			pop[i] = &Individual{Objectives: Objectives{
				math.Floor(rng.Float64() * 5), math.Floor(rng.Float64() * 5),
			}}
		}
		front := updateArchive(nil, pop, nil)
		if len(front) == 0 {
			return false
		}
		for i, a := range front {
			for j, b := range front {
				if i != j && Dominates(a.Objectives, b.Objectives) {
					return false
				}
			}
		}
		for _, p := range pop {
			kept := false
			covered := false
			for _, f := range front {
				if f == p {
					kept = true
					break
				}
				if Dominates(f.Objectives, p.Objectives) || equalObjectives(f.Objectives, p.Objectives) {
					covered = true
				}
			}
			if !kept && !covered {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSortFrontsRanks(t *testing.T) {
	pop := []*Individual{
		{Objectives: Objectives{0, 0}}, // front 0
		{Objectives: Objectives{1, 1}}, // front 1
		{Objectives: Objectives{2, 2}}, // front 2
		{Objectives: Objectives{0, 3}}, // front 0 (incomparable with {0,0}? no: {0,0} dominates {0,3})
	}
	fronts := sortFronts(pop)
	if len(fronts) < 2 {
		t.Fatalf("fronts = %d", len(fronts))
	}
	if pop[0].Rank() != 0 {
		t.Fatal("best individual not rank 0")
	}
	if pop[2].Rank() <= pop[1].Rank() {
		t.Fatal("rank ordering broken")
	}
}

func TestAssignCrowdingBoundariesInfinite(t *testing.T) {
	front := []*Individual{
		{Objectives: Objectives{0, 2}},
		{Objectives: Objectives{1, 1}},
		{Objectives: Objectives{2, 0}},
	}
	assignCrowding(front)
	if !math.IsInf(front[0].crowding, 1) || !math.IsInf(front[2].crowding, 1) {
		t.Fatal("boundary crowding not infinite")
	}
	if math.IsInf(front[1].crowding, 1) || front[1].crowding <= 0 {
		t.Fatalf("middle crowding = %v", front[1].crowding)
	}
}

// zdt1 is the classic two-objective benchmark with Pareto front
// f2 = 1 - sqrt(f1) at g == 1 (all tail genes zero).
type zdt1 struct{ n int }

func (z zdt1) GenotypeLen() int { return z.n }

func (z zdt1) Evaluate(_ int, g []float64) (Objectives, any) {
	f1 := g[0]
	sum := 0.0
	for _, v := range g[1:] {
		sum += v
	}
	gg := 1 + 9*sum/float64(z.n-1)
	f2 := gg * (1 - math.Sqrt(f1/gg))
	return Objectives{f1, f2}, nil
}

func TestNSGA2ConvergesOnZDT1(t *testing.T) {
	res, err := Run(context.Background(), zdt1{n: 12}, Options{PopSize: 60, Generations: 80, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluations != 60+60*80 {
		t.Fatalf("evaluations = %d", res.Evaluations)
	}
	if len(res.Archive) < 10 {
		t.Fatalf("archive too small: %d", len(res.Archive))
	}
	// Every archive point must be near the true front: f2 ≈ 1-sqrt(f1).
	worst := 0.0
	for _, ind := range res.Archive {
		f1, f2 := ind.Objectives[0], ind.Objectives[1]
		gap := f2 - (1 - math.Sqrt(f1))
		if gap > worst {
			worst = gap
		}
	}
	if worst > 0.35 {
		t.Fatalf("archive up to %.3f above the true front", worst)
	}
	// Hypervolume must beat a random population's by a clear margin.
	var frontObjs []Objectives
	for _, ind := range res.Archive {
		frontObjs = append(frontObjs, ind.Objectives)
	}
	hv := Hypervolume2D(frontObjs, Objectives{1.1, 11})
	if hv < 9 {
		t.Fatalf("hypervolume = %v", hv)
	}
}

func TestRunRejectsEmptyGenotype(t *testing.T) {
	if _, err := Run(context.Background(), zdt1{n: 0}, Options{}); err == nil {
		t.Fatal("empty genotype accepted")
	}
}

// TestOnGenerationCallback: the callback fires once per generation, in
// order, for a single population and for an island campaign alike.
func TestOnGenerationCallback(t *testing.T) {
	for _, islands := range []int{1, 3} {
		calls := 0
		_, err := Run(context.Background(), zdt1{n: 5}, Options{PopSize: 10, Generations: 7, Seed: 1,
			Islands: islands, MigrateEvery: 3,
			OnGeneration: func(gen int, archive []*Individual) {
				if gen != calls {
					t.Fatalf("islands=%d: generation %d out of order", islands, gen)
				}
				if len(archive) == 0 {
					t.Fatal("empty archive in callback")
				}
				calls++
			}})
		if err != nil {
			t.Fatal(err)
		}
		if calls != 7 {
			t.Fatalf("islands=%d: callback called %d times", islands, calls)
		}
	}
}

func TestRunDeterministicForSeed(t *testing.T) {
	a, err := Run(context.Background(), zdt1{n: 6}, Options{PopSize: 16, Generations: 10, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	b, _ := Run(context.Background(), zdt1{n: 6}, Options{PopSize: 16, Generations: 10, Seed: 42})
	if len(a.Archive) != len(b.Archive) {
		t.Fatalf("archive sizes differ: %d vs %d", len(a.Archive), len(b.Archive))
	}
	for i := range a.Archive {
		if !equalObjectives(a.Archive[i].Objectives, b.Archive[i].Objectives) {
			t.Fatal("same seed produced different archives")
		}
	}
}

func TestHypervolume2D(t *testing.T) {
	front := []Objectives{{0.25, 0.75}, {0.5, 0.5}, {0.75, 0.25}}
	hv := Hypervolume2D(front, Objectives{1, 1})
	// Column decomposition of the dominated region:
	// x∈[0.25,0.5): 0.25·0.25 + x∈[0.5,0.75): 0.25·0.5 + x∈[0.75,1]: 0.25·0.75.
	if math.Abs(hv-0.375) > 1e-12 {
		t.Fatalf("hv = %v, want 0.375", hv)
	}
	if Hypervolume2D(nil, Objectives{1, 1}) != 0 {
		t.Fatal("empty front must have hv 0")
	}
	if Hypervolume2D([]Objectives{{2, 2}}, Objectives{1, 1}) != 0 {
		t.Fatal("points beyond ref must not contribute")
	}
}

func TestHypervolume3D(t *testing.T) {
	// Single point {0,0,0} with ref {1,1,1}: unit cube.
	hv := Hypervolume3D([]Objectives{{0, 0, 0}}, Objectives{1, 1, 1})
	if math.Abs(hv-1) > 1e-12 {
		t.Fatalf("hv = %v, want 1", hv)
	}
	// Two points splitting along z.
	hv = Hypervolume3D([]Objectives{{0, 0.5, 0}, {0.5, 0, 0.5}}, Objectives{1, 1, 1})
	// Slab z∈[0,0.5): area of {0,0.5} = 1*0.5 = 0.5 → 0.25.
	// Slab z∈[0.5,1): area of union {0,0.5},{0.5,0} = 0.5+0.25 = 0.75 → 0.375.
	if math.Abs(hv-0.625) > 1e-12 {
		t.Fatalf("hv = %v, want 0.625", hv)
	}
}

func TestAdditiveEpsilon(t *testing.T) {
	ref := []Objectives{{0, 1}, {1, 0}}
	// Perfect cover.
	if eps := AdditiveEpsilon(ref, ref); eps != 0 {
		t.Fatalf("eps = %v, want 0", eps)
	}
	// Approximation shifted by 0.2.
	approx := []Objectives{{0.2, 1.2}, {1.2, 0.2}}
	if eps := AdditiveEpsilon(approx, ref); math.Abs(eps-0.2) > 1e-12 {
		t.Fatalf("eps = %v, want 0.2", eps)
	}
}

func TestMutateStaysInBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := make([]float64, 100)
	for i := range g {
		g[i] = rng.Float64()
	}
	for round := 0; round < 100; round++ {
		mutate(rng, g, 0.5, 0.3)
		for _, v := range g {
			if v < 0 || v > 1 {
				t.Fatalf("gene out of bounds: %v", v)
			}
		}
	}
}

func TestCrossoverPreservesGenePool(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := []float64{1, 2, 3, 4}
	b := []float64{5, 6, 7, 8}
	c1, c2 := crossover(rng, a, b, 1.0)
	for i := range a {
		ok := (c1[i] == a[i] && c2[i] == b[i]) || (c1[i] == b[i] && c2[i] == a[i])
		if !ok {
			t.Fatalf("gene %d lost: %v %v", i, c1, c2)
		}
	}
	// Parents untouched.
	if a[0] != 1 || b[0] != 5 {
		t.Fatal("crossover mutated parents")
	}
}

// TestNSGA2BeatsRandomSearch: with equal evaluation budgets on ZDT1,
// NSGA-II's archive hypervolume must clearly exceed random search's —
// the optimizer ablation.
func TestNSGA2BeatsRandomSearch(t *testing.T) {
	const budget = 60 + 60*40
	nsga, err := Run(context.Background(), zdt1{n: 12}, Options{PopSize: 60, Generations: 40, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	rnd, err := RandomSearch(context.Background(), zdt1{n: 12}, RandomOptions{Evals: budget, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if rnd.Evaluations != budget || nsga.Evaluations != budget {
		t.Fatalf("budgets: nsga %d rnd %d", nsga.Evaluations, rnd.Evaluations)
	}
	ref := Objectives{1.1, 11}
	hvN := Hypervolume2D(frontOf(nsga), ref)
	hvR := Hypervolume2D(frontOf(rnd), ref)
	if hvN <= hvR {
		t.Fatalf("NSGA-II hv %.3f not above random search hv %.3f", hvN, hvR)
	}
}

func frontOf(r *Result) []Objectives {
	var out []Objectives
	for _, ind := range r.Archive {
		out = append(out, ind.Objectives)
	}
	return out
}

func TestRandomSearchArchiveNonDominated(t *testing.T) {
	res, err := RandomSearch(context.Background(), zdt1{n: 6}, RandomOptions{Evals: 500, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range res.Archive {
		for j, b := range res.Archive {
			if i != j && Dominates(a.Objectives, b.Objectives) {
				t.Fatalf("archive entry %d dominates %d", i, j)
			}
		}
	}
	if _, err := RandomSearch(context.Background(), zdt1{n: 0}, RandomOptions{Evals: 10, Seed: 1}); err == nil {
		t.Fatal("empty genotype accepted")
	}
}

// TestParallelEvaluationDeterministic: Workers > 1 must reproduce the
// sequential run exactly (genotype generation is sequential; evaluation
// is pure).
func TestParallelEvaluationDeterministic(t *testing.T) {
	seq, err := Run(context.Background(), zdt1{n: 8}, Options{PopSize: 20, Generations: 12, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Run(context.Background(), zdt1{n: 8}, Options{PopSize: 20, Generations: 12, Seed: 9, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if seq.Evaluations != par.Evaluations {
		t.Fatalf("evaluations differ: %d vs %d", seq.Evaluations, par.Evaluations)
	}
	if len(seq.Archive) != len(par.Archive) {
		t.Fatalf("archive sizes differ: %d vs %d", len(seq.Archive), len(par.Archive))
	}
	for i := range seq.Archive {
		if !equalObjectives(seq.Archive[i].Objectives, par.Archive[i].Objectives) {
			t.Fatalf("archive entry %d differs", i)
		}
	}
}

// TestEpsilonArchiveThinsFront: with ε-dominance the archive is much
// smaller than the exact archive but still mutually non-dominated and
// still near the true ZDT1 front.
func TestEpsilonArchiveThinsFront(t *testing.T) {
	exact, err := Run(context.Background(), zdt1{n: 10}, Options{PopSize: 40, Generations: 40, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	eps, err := Run(context.Background(), zdt1{n: 10}, Options{PopSize: 40, Generations: 40, Seed: 5,
		ArchiveEpsilon: []float64{0.05, 0.05}})
	if err != nil {
		t.Fatal(err)
	}
	if len(eps.Archive) >= len(exact.Archive) {
		t.Fatalf("ε-archive %d not below exact %d", len(eps.Archive), len(exact.Archive))
	}
	if len(eps.Archive) < 5 {
		t.Fatalf("ε-archive degenerate: %d", len(eps.Archive))
	}
	for i, a := range eps.Archive {
		for j, b := range eps.Archive {
			if i != j && Dominates(a.Objectives, b.Objectives) {
				t.Fatalf("ε-archive entry %d dominates %d", i, j)
			}
		}
		if gap := a.Objectives[1] - (1 - math.Sqrt(a.Objectives[0])); gap > 0.4 {
			t.Fatalf("ε-archive point %.3f above the front", gap)
		}
	}
}

func TestEpsFloor(t *testing.T) {
	if math.Abs(epsFloor(0.37, 0.1)-0.3) > 1e-12 {
		t.Fatalf("epsFloor = %v", epsFloor(0.37, 0.1))
	}
	if epsFloor(0.42, 0.1) >= 0.42 || epsFloor(0.42, 0.1) < 0.3999 {
		t.Fatalf("epsFloor(0.42) = %v", epsFloor(0.42, 0.1))
	}
	inf := math.Inf(1)
	if epsFloor(inf, 0.1) != inf {
		t.Fatal("inf not preserved")
	}
}
