package moea

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"
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
	// vector of each Population and Archive member, element for element;
	// every value round-trips bit for bit (see ExactVector).
	PopulationObjectives []ExactVector `json:"population_objectives,omitempty"`

	// Archive holds the all-time non-dominated genotypes in insertion
	// order; re-inserting them in order reproduces the archive exactly.
	Archive           [][]float64   `json:"archive"`
	ArchiveObjectives []ExactVector `json:"archive_objectives"`
}

// ExactVector is an objective vector whose JSON form round-trips bit
// for bit. A finite value is written as its shortest round-trip
// number, -0 as -0. A value no JSON number can carry, ±Inf or a NaN
// with its payload, is written as a string holding its
// math.Float64bits word in hex: "0x7ff0000000000000" is +Inf.
type ExactVector []float64

// MarshalJSON implements json.Marshaler.
func (v ExactVector) MarshalJSON() ([]byte, error) {
	if v == nil {
		return []byte("null"), nil
	}
	buf := append(make([]byte, 0, 2+24*len(v)), '[')
	for i, f := range v {
		if i > 0 {
			buf = append(buf, ',')
		}
		if math.IsInf(f, 0) || math.IsNaN(f) {
			buf = fmt.Appendf(buf, `"0x%016x"`, math.Float64bits(f))
		} else {
			buf = strconv.AppendFloat(buf, f, 'g', -1, 64)
		}
	}
	return append(buf, ']'), nil
}

// UnmarshalJSON implements json.Unmarshaler. It rejects a number out of
// float64 range and a string that is not the hex word of a non-finite
// value.
func (v *ExactVector) UnmarshalJSON(data []byte) error {
	var items []json.RawMessage
	if err := json.Unmarshal(data, &items); err != nil {
		return err
	}
	if items == nil {
		*v = nil
		return nil
	}
	out := make(ExactVector, len(items))
	for i, item := range items {
		var err error
		if item[0] == '"' {
			out[i], err = parseNonFinite(item)
		} else {
			out[i], err = strconv.ParseFloat(string(item), 64)
		}
		if err != nil {
			return fmt.Errorf("moea: objective value %s: %w", item, err)
		}
	}
	*v = out
	return nil
}

// parseNonFinite reads a quoted "0x" + 16 hex digit word of ±Inf or NaN.
func parseNonFinite(quoted []byte) (float64, error) {
	var s string
	if err := json.Unmarshal(quoted, &s); err != nil {
		return 0, err
	}
	hex, ok := strings.CutPrefix(s, "0x")
	if !ok || len(hex) != 16 {
		return 0, fmt.Errorf("not a 0x-prefixed 16-digit hex word")
	}
	w, err := strconv.ParseUint(hex, 16, 64)
	if err != nil {
		return 0, err
	}
	f := math.Float64frombits(w)
	if !math.IsInf(f, 0) && !math.IsNaN(f) {
		return 0, fmt.Errorf("finite value written as a hex word")
	}
	return f, nil
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

// objectiveVectors extracts the objective vectors of a population,
// aligned with genotypes(). The vectors share one backing array, each
// capped at its own length.
func objectiveVectors(pop []*Individual) []ExactVector {
	n := 0
	for _, ind := range pop {
		n += len(ind.Objectives)
	}
	out := make([]ExactVector, len(pop))
	flat := make(ExactVector, 0, n)
	for i, ind := range pop {
		start := len(flat)
		flat = append(flat, ind.Objectives...)
		out[i] = flat[start:len(flat):len(flat)]
	}
	return out
}

// restoreIndividuals zips stored genotypes and objective vectors back
// into individuals, without payloads, allocated together. The genotypes
// are shared with the checkpoint: nothing mutates a genotype or an
// objective vector once it is evaluated.
func restoreIndividuals(genos [][]float64, objs []ExactVector) []*Individual {
	n := 0
	for _, v := range objs {
		n += len(v)
	}
	out := make([]*Individual, len(genos))
	slab := make([]Individual, len(genos))
	flat := make(Objectives, 0, n)
	for i, g := range genos {
		start := len(flat)
		flat = append(flat, objs[i]...)
		slab[i] = Individual{Genotype: g, Objectives: flat[start:len(flat):len(flat)]}
		out[i] = &slab[i]
	}
	return out
}
