package moea

import (
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/durable"
)

// Checkpoint file format identifiers. Version is bumped on any change
// to the serialized layout; readers reject unknown versions instead of
// silently misinterpreting state.
const (
	CheckpointFormat  = "eedse-dse-checkpoint"
	CheckpointVersion = 1
)

// Optimizer algorithm tags recorded in checkpoints.
const (
	AlgorithmNSGA2  = "nsga2"
	AlgorithmRandom = "random"
)

// Checkpoint is a complete snapshot of one optimizer state: an NSGA-II
// island at a generation boundary (embedded in an IslandCheckpoint) or
// a random search at a chunk boundary (the random-search checkpoint
// file). Only genotypes are stored: objectives and payloads are rebuilt
// on resume by re-evaluating them, which is exact because decoders and
// objective evaluation are deterministic. Together with the serialized
// PRNG state this makes a resumed run byte-identical to the
// uninterrupted one, at any worker count.
type Checkpoint struct {
	Format    string `json:"format"`
	Version   int    `json:"version"`
	Algorithm string `json:"algorithm"` // "nsga2" or "random"

	Seed        int64     `json:"seed"`
	GenotypeLen int       `json:"genotype_len"`
	RNG         [4]uint64 `json:"rng"`
	// Evaluations is the cumulative Problem.Evaluate count of the run so
	// far (resume restores it; rebuild evaluations are not counted).
	Evaluations int `json:"evaluations"`

	// NSGA-II state: the run continues at NextGeneration.
	PopSize        int         `json:"pop_size,omitempty"`
	Generations    int         `json:"generations,omitempty"`
	NextGeneration int         `json:"next_generation,omitempty"`
	ArchiveEpsilon []float64   `json:"archive_epsilon,omitempty"`
	Population     [][]float64 `json:"population,omitempty"`

	// Random-search state: the run continues at evaluation NextEval.
	TotalEvals int `json:"total_evals,omitempty"`
	NextEval   int `json:"next_eval,omitempty"`

	// Archive holds the all-time non-dominated genotypes in insertion
	// order; re-inserting them in order reproduces the archive exactly.
	Archive [][]float64 `json:"archive"`
}

// check validates a checkpoint against the run it is resuming.
func (cp *Checkpoint) check(alg string, genLen int) error {
	if cp.Format != CheckpointFormat {
		return fmt.Errorf("moea: resume: not a checkpoint file (format %q)", cp.Format)
	}
	if cp.Version != CheckpointVersion {
		return fmt.Errorf("moea: resume: unsupported checkpoint version %d (want %d)", cp.Version, CheckpointVersion)
	}
	if cp.Algorithm != alg {
		return fmt.Errorf("moea: resume: checkpoint is for optimizer %q, run uses %q", cp.Algorithm, alg)
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

// WriteFile atomically writes the checkpoint to path through
// durable.WriteFileAtomic (path+".tmp", fsync, rename, directory
// fsync), so a crash mid-write never destroys the previous checkpoint
// and a checkpoint reported as written survives power loss.
func (cp *Checkpoint) WriteFile(path string) error {
	data, err := json.Marshal(cp)
	if err == nil {
		err = durable.WriteFileAtomic(durable.OSFS{}, path, data)
	}
	if err != nil {
		return fmt.Errorf("moea: checkpoint: %w", err)
	}
	return nil
}

// ReadCheckpointFile loads a checkpoint written by WriteFile. A file
// that exists but does not parse as a checkpoint of this version fails
// with ErrCheckpointCorrupt.
func ReadCheckpointFile(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("moea: checkpoint: %w", err)
	}
	cp := &Checkpoint{}
	if err := json.Unmarshal(data, cp); err != nil {
		return nil, fmt.Errorf("moea: checkpoint %s: %w: %v", path, ErrCheckpointCorrupt, err)
	}
	if cp.Format != CheckpointFormat {
		return nil, fmt.Errorf("moea: checkpoint %s: %w: not a checkpoint file (format %q)", path, ErrCheckpointCorrupt, cp.Format)
	}
	if cp.Version != CheckpointVersion {
		return nil, fmt.Errorf("moea: checkpoint %s: %w: unsupported version %d (want %d)", path, ErrCheckpointCorrupt, cp.Version, CheckpointVersion)
	}
	return cp, nil
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
