package moea

import "fmt"

// Checkpoint file format identifiers. Version is bumped on any change
// to the serialized layout; readers reject unknown versions instead of
// silently misinterpreting state.
const (
	CheckpointFormat  = "eedse-dse-checkpoint"
	CheckpointVersion = 1
)

// AlgorithmNSGA2 is the optimizer tag every island state records.
const AlgorithmNSGA2 = "nsga2"

// Checkpoint is a complete snapshot of one NSGA-II island at a
// generation boundary, embedded per island in an IslandCheckpoint or
// IslandShard. Only genotypes are stored: objectives and payloads are
// rebuilt on resume by re-evaluating them, which is exact because
// decoders and objective evaluation are deterministic. Together with
// the serialized PRNG state this makes a resumed run byte-identical to
// the uninterrupted one, at any worker count.
type Checkpoint struct {
	Format    string `json:"format"`
	Version   int    `json:"version"`
	Algorithm string `json:"algorithm"` // always "nsga2"

	Seed        int64     `json:"seed"`
	GenotypeLen int       `json:"genotype_len"`
	RNG         [4]uint64 `json:"rng"`
	// Evaluations is the cumulative Problem.Evaluate count of the run so
	// far (resume restores it; rebuild evaluations are not counted).
	Evaluations int `json:"evaluations"`

	// The run continues at NextGeneration.
	PopSize        int         `json:"pop_size,omitempty"`
	Generations    int         `json:"generations,omitempty"`
	NextGeneration int         `json:"next_generation,omitempty"`
	ArchiveEpsilon []float64   `json:"archive_epsilon,omitempty"`
	Population     [][]float64 `json:"population,omitempty"`

	// Archive holds the all-time non-dominated genotypes in insertion
	// order; re-inserting them in order reproduces the archive exactly.
	Archive [][]float64 `json:"archive"`
}

// check validates an island state against the problem resuming it.
func (cp *Checkpoint) check(genLen int) error {
	if cp.Format != CheckpointFormat {
		return fmt.Errorf("moea: resume: not a checkpoint file (format %q)", cp.Format)
	}
	if cp.Version != CheckpointVersion {
		return fmt.Errorf("moea: resume: unsupported checkpoint version %d (want %d)", cp.Version, CheckpointVersion)
	}
	if cp.Algorithm != AlgorithmNSGA2 {
		return fmt.Errorf("moea: resume: checkpoint is for optimizer %q, run uses %q", cp.Algorithm, AlgorithmNSGA2)
	}
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

// equalEpsilon compares ε-archive configurations for resume validation.
func equalEpsilon(a, b []float64) bool {
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
