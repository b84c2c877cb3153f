package moea

import (
	"fmt"
	"math"
)

// Checkpoint is a complete snapshot of one NSGA-II island at a
// generation boundary, embedded per island in an IslandCheckpoint. It
// stores every population and archive member as its genotype plus its
// objective vector, so restoring an island evaluates nothing: the
// members are zipped back together, and only the offspring a resumed
// run breeds reach Problem.Evaluate. Payloads are not stored; restored
// members carry none. Together with the serialized PRNG state this
// makes a resumed run byte-identical to the uninterrupted one, at any
// worker count.
type Checkpoint struct {
	Seed        int64     `json:"seed"`
	GenotypeLen int       `json:"genotype_len"`
	RNG         [4]uint64 `json:"rng"`
	// Evaluations is the cumulative Problem.Evaluate count of the run so
	// far; a resumed run continues it.
	Evaluations int `json:"evaluations"`

	// The run continues at NextGeneration.
	PopSize        int         `json:"pop_size,omitempty"`
	Generations    int         `json:"generations,omitempty"`
	NextGeneration int         `json:"next_generation,omitempty"`
	ArchiveEpsilon []float64   `json:"archive_epsilon,omitempty"`
	Population     [][]float64 `json:"population,omitempty"`
	// PopulationObjectives and ArchiveObjectives hold the objective
	// vector of each Population and Archive member, element for element,
	// as math.Float64bits words: every value round-trips bit for bit,
	// ±Inf and NaN included, which a JSON number cannot carry.
	PopulationObjectives [][]uint64 `json:"population_objectives,omitempty"`

	// Archive holds the all-time non-dominated genotypes in insertion
	// order; re-inserting them in order reproduces the archive exactly.
	Archive           [][]float64 `json:"archive"`
	ArchiveObjectives [][]uint64  `json:"archive_objectives"`
}

// check validates an island state against the problem resuming it.
func (cp *Checkpoint) check(genLen int) error {
	if cp.GenotypeLen != genLen {
		return fmt.Errorf("moea: resume: checkpoint genotype length %d does not match problem length %d", cp.GenotypeLen, genLen)
	}
	for _, g := range cp.Population {
		if len(g) != genLen {
			return fmt.Errorf("moea: resume: corrupt checkpoint: population genotype length %d != %d", len(g), genLen)
		}
	}
	for _, g := range cp.Archive {
		if len(g) != genLen {
			return fmt.Errorf("moea: resume: corrupt checkpoint: archive genotype length %d != %d", len(g), genLen)
		}
	}
	return nil
}

// genotypes extracts the genotype matrix of a population for a
// checkpoint snapshot.
func genotypes(pop []*Individual) [][]float64 {
	out := make([][]float64, len(pop))
	for i, ind := range pop {
		out[i] = ind.Genotype
	}
	return out
}

// objectiveBits extracts the objective vectors of a population as
// math.Float64bits words, aligned with genotypes(). The vectors share
// one backing array, each capped at its own length.
func objectiveBits(pop []*Individual) [][]uint64 {
	n := 0
	for _, ind := range pop {
		n += len(ind.Objectives)
	}
	out := make([][]uint64, len(pop))
	flat := make([]uint64, 0, n)
	for i, ind := range pop {
		start := len(flat)
		for _, v := range ind.Objectives {
			flat = append(flat, math.Float64bits(v))
		}
		out[i] = flat[start:len(flat):len(flat)]
	}
	return out
}

// restoreIndividuals zips stored genotypes and objective words back
// into individuals, without payloads, allocated together. The genotypes
// are shared with the checkpoint: nothing mutates a genotype or an
// objective vector once it is evaluated.
func restoreIndividuals(genos [][]float64, objs [][]uint64) []*Individual {
	n := 0
	for _, words := range objs {
		n += len(words)
	}
	out := make([]*Individual, len(genos))
	slab := make([]Individual, len(genos))
	flat := make(Objectives, 0, n)
	for i, g := range genos {
		start := len(flat)
		for _, w := range objs[i] {
			flat = append(flat, math.Float64frombits(w))
		}
		slab[i] = Individual{Genotype: g, Objectives: flat[start:len(flat):len(flat)]}
		out[i] = &slab[i]
	}
	return out
}
