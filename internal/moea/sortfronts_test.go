package moea

import (
	"math"
	"math/rand"
	"testing"
)

// refSortFronts is the fast non-dominated sort as it was written before
// sortFronts compared each pair once: every ordered pair, two Dominates
// calls. It is the oracle for TestSortFrontsMatchesTwoCallOracle.
func refSortFronts(pop []*Individual) [][]*Individual {
	n := len(pop)
	dominatedBy := make([][]int, n)
	domCount := make([]int, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			if Dominates(pop[i].Objectives, pop[j].Objectives) {
				dominatedBy[i] = append(dominatedBy[i], j)
			} else if Dominates(pop[j].Objectives, pop[i].Objectives) {
				domCount[i]++
			}
		}
	}
	var fronts [][]*Individual
	var current []int
	for i := 0; i < n; i++ {
		if domCount[i] == 0 {
			pop[i].rank = 0
			current = append(current, i)
		}
	}
	for len(current) > 0 {
		front := make([]*Individual, len(current))
		for k, i := range current {
			front[k] = pop[i]
		}
		fronts = append(fronts, front)
		var next []int
		for _, i := range current {
			for _, j := range dominatedBy[i] {
				domCount[j]--
				if domCount[j] == 0 {
					pop[j].rank = len(fronts)
					next = append(next, j)
				}
			}
		}
		current = next
	}
	return fronts
}

// TestSortFrontsMatchesTwoCallOracle checks the one-comparison-per-pair
// sort against the two-call oracle on seeded populations drawn from a
// few values per objective (so ties and whole duplicate vectors are
// common) salted with NaN and ±Inf. Ranks, the fronts and the order of
// every front's members, which follows the dominatedBy lists, must
// agree.
func TestSortFrontsMatchesTwoCallOracle(t *testing.T) {
	values := []float64{0, 1, 2, 3, math.Inf(1), math.Inf(-1), math.NaN()}
	rng := rand.New(rand.NewSource(20))
	for round := 0; round < 400; round++ {
		n := 1 + rng.Intn(80)
		m := 2 + rng.Intn(3)
		salt := rng.Intn(4) // 0: finite values only
		pop := make([]*Individual, n)
		for i := range pop {
			if i > 0 && rng.Intn(8) == 0 {
				pop[i] = &Individual{Objectives: append(Objectives(nil), pop[rng.Intn(i)].Objectives...)}
				continue
			}
			obj := make(Objectives, m)
			for k := range obj {
				if salt > 0 && rng.Intn(10) < salt {
					obj[k] = values[4+rng.Intn(3)]
				} else {
					obj[k] = values[rng.Intn(4)]
				}
			}
			pop[i] = &Individual{Objectives: obj}
		}
		// An individual no front reaches keeps its old rank. With NaN,
		// dominance can cycle: (0,1,NaN) is dominated by (NaN,0,1),
		// that by (1,NaN,0), and that by (0,1,NaN). Both sorts leave
		// such a cycle out of every front.
		for _, ind := range pop {
			ind.rank = -1
		}
		want := refSortFronts(pop)
		wantRank := make([]int, n)
		for i, ind := range pop {
			wantRank[i], ind.rank = ind.rank, -1
		}
		got := sortFronts(pop)
		for i, ind := range pop {
			if ind.rank != wantRank[i] {
				t.Fatalf("round %d: individual %d %v rank %d, oracle %d", round, i, ind.Objectives, ind.rank, wantRank[i])
			}
		}
		if len(got) != len(want) {
			t.Fatalf("round %d: %d fronts, oracle %d", round, len(got), len(want))
		}
		for f := range want {
			if len(got[f]) != len(want[f]) {
				t.Fatalf("round %d: front %d has %d members, oracle %d", round, f, len(got[f]), len(want[f]))
			}
			for k := range want[f] {
				if got[f][k] != want[f][k] {
					t.Fatalf("round %d: front %d member %d differs from the oracle's", round, f, k)
				}
			}
		}
	}
}

// TestDominanceMatchesDominates checks the fused comparison against two
// Dominates calls on every pair of a small value grid with NaN and ±Inf.
func TestDominanceMatchesDominates(t *testing.T) {
	values := []float64{-1, 0, 1, math.Inf(1), math.Inf(-1), math.NaN()}
	var vecs []Objectives
	for _, a := range values {
		for _, b := range values {
			vecs = append(vecs, Objectives{a, b})
		}
	}
	for _, a := range vecs {
		for _, b := range vecs {
			aDom, bDom := dominance(a, b)
			if aDom != Dominates(a, b) || bDom != Dominates(b, a) {
				t.Fatalf("dominance(%v, %v) = %v, %v; Dominates gives %v, %v", a, b, aDom, bDom, Dominates(a, b), Dominates(b, a))
			}
		}
	}
}
