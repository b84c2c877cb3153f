// Package moea provides the multi-objective evolutionary optimizer of
// the design space exploration: NSGA-II (non-dominated sorting, crowding
// distance, binary tournament) over real-valued genotypes, an unbounded
// Pareto archive, and quality indicators (hypervolume, additive
// epsilon) for comparing runs.
//
// Genotypes are priority vectors in [0,1]; in SAT-decoding they steer
// the pseudo-Boolean solver's decision order, so every evaluated
// individual corresponds to a feasible implementation.
package moea

import "math"

// Objectives is a vector of objective values, all minimized. Maximized
// quantities (like test quality) are negated by the problem definition.
type Objectives []float64

// Dominates reports Pareto dominance: a is nowhere worse and somewhere
// strictly better than b.
func Dominates(a, b Objectives) bool {
	strictly := false
	for i := range a {
		if a[i] > b[i] {
			return false
		}
		if a[i] < b[i] {
			strictly = true
		}
	}
	return strictly
}

// Individual couples a genotype with its evaluation.
type Individual struct {
	Genotype   []float64
	Objectives Objectives
	// Payload carries problem-specific decode results (e.g. the decoded
	// implementation) so archive entries stay self-describing.
	Payload any

	rank     int
	crowding float64
}

// Rank returns the non-domination rank assigned by the last sort
// (0 = first front).
func (ind *Individual) Rank() int { return ind.rank }

// ParetoFilter returns the non-dominated subset of the individuals
// (first front only), preserving order.
func ParetoFilter(pop []*Individual) []*Individual {
	var out []*Individual
	for i, a := range pop {
		dominated := false
		for j, b := range pop {
			if i == j {
				continue
			}
			if Dominates(b.Objectives, a.Objectives) {
				dominated = true
				break
			}
			// Resolve duplicates: keep the first occurrence only.
			if j < i && equalObjectives(a.Objectives, b.Objectives) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, a)
		}
	}
	return out
}

func equalObjectives(a, b Objectives) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// dominance compares a and b once in both directions: aDom reports
// Dominates(a, b) and bDom reports Dominates(b, a). A NaN compares
// neither better nor worse, as in Dominates.
func dominance(a, b Objectives) (aDom, bDom bool) {
	better, worse := false, false // some a[k] < b[k], some a[k] > b[k]
	for k := range a {
		if a[k] < b[k] {
			better = true
		} else if a[k] > b[k] {
			worse = true
		}
		if better && worse {
			return false, false
		}
	}
	return better && !worse, worse && !better
}

// sortFronts performs the fast non-dominated sort, assigning ranks and
// returning the fronts in order; every individual lands in exactly one
// front. Each unordered pair is compared once.
// Rows run in ascending i, so every dominatedBy list is filled in
// ascending index order, as a scan of all ordered pairs fills it.
func sortFronts(pop []*Individual) [][]*Individual {
	n := len(pop)
	dominatedBy := make([][]int, n) // i dominates these
	domCount := make([]int, n)      // number of individuals dominating i
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			switch iDom, jDom := dominance(pop[i].Objectives, pop[j].Objectives); {
			case iDom:
				dominatedBy[i] = append(dominatedBy[i], j)
				domCount[j]++
			case jDom:
				dominatedBy[j] = append(dominatedBy[j], i)
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
	// With NaN objectives dominance can cycle, and the peel never frees
	// a cycle or what it dominates: those individuals still count a
	// dominator. They form one last front, in index order, so every
	// individual lands in exactly one front.
	var last []*Individual
	for i, c := range domCount {
		if c > 0 {
			pop[i].rank = len(fronts)
			last = append(last, pop[i])
		}
	}
	if last != nil {
		fronts = append(fronts, last)
	}
	return fronts
}

// assignCrowding computes the crowding distance within one front.
func assignCrowding(front []*Individual) {
	n := len(front)
	if n == 0 {
		return
	}
	for _, ind := range front {
		ind.crowding = 0
	}
	m := len(front[0].Objectives)
	idx := make([]int, n)
	for k := 0; k < m; k++ {
		for i := range idx {
			idx[i] = i
		}
		// Insertion sort by objective k (fronts are small).
		for i := 1; i < n; i++ {
			for j := i; j > 0 && front[idx[j]].Objectives[k] < front[idx[j-1]].Objectives[k]; j-- {
				idx[j], idx[j-1] = idx[j-1], idx[j]
			}
		}
		lo, hi := front[idx[0]].Objectives[k], front[idx[n-1]].Objectives[k]
		front[idx[0]].crowding = math.Inf(1)
		front[idx[n-1]].crowding = math.Inf(1)
		span := hi - lo
		// A non-finite span (an objective holding ±Inf, or Inf−Inf = NaN)
		// would leak NaN into every crowding sum and silently corrupt the
		// selection ordering; skip the objective instead — the boundary
		// individuals keep their Inf crowding either way.
		if span <= 0 || math.IsInf(span, 0) || math.IsNaN(span) {
			continue
		}
		for i := 1; i < n-1; i++ {
			front[idx[i]].crowding += (front[idx[i+1]].Objectives[k] - front[idx[i-1]].Objectives[k]) / span
		}
	}
}
