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
