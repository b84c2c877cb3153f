package moea

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"math"
	"testing"
)

// archiveDigest is the SHA-256 of an archive's genotypes and objective
// vectors in archive order, bit for bit.
func archiveDigest(archive []*Individual) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	for _, ind := range archive {
		for _, v := range ind.Genotype {
			put(v)
		}
		for _, v := range ind.Objectives {
			put(v)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func bytesDigest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// v1State is the layout of an island state in a version 1 checkpoint,
// the layout the checkpoint digests below were recorded in: the state
// without its objective vectors, under the header fields version 2
// dropped.
type v1State struct {
	Format         string      `json:"format"`
	Version        int         `json:"version"`
	Algorithm      string      `json:"algorithm"`
	Seed           int64       `json:"seed"`
	GenotypeLen    int         `json:"genotype_len"`
	RNG            [4]uint64   `json:"rng"`
	Evaluations    int         `json:"evaluations"`
	PopSize        int         `json:"pop_size,omitempty"`
	Generations    int         `json:"generations,omitempty"`
	NextGeneration int         `json:"next_generation,omitempty"`
	ArchiveEpsilon []float64   `json:"archive_epsilon,omitempty"`
	Population     [][]float64 `json:"population,omitempty"`
	Archive        [][]float64 `json:"archive"`
}

// v1Bytes encodes an island state in the version 1 layout.
func v1Bytes(st *Checkpoint) ([]byte, error) {
	return json.Marshal(v1State{
		Format: "eedse-dse-checkpoint", Version: 1, Algorithm: "nsga2",
		Seed: st.Seed, GenotypeLen: st.GenotypeLen, RNG: st.RNG, Evaluations: st.Evaluations,
		PopSize: st.PopSize, Generations: st.Generations, NextGeneration: st.NextGeneration,
		ArchiveEpsilon: st.ArchiveEpsilon, Population: st.Population, Archive: st.Archive,
	})
}

// TestGoldenFronts pins the optimizer's outputs to digests recorded
// before the single-population and island drivers were unified: the
// default run on zdt1 at two worker counts, a 3-island campaign, and
// every periodic checkpoint of a single-population run (recorded as the
// classic checkpoint file; now island 0's state, digested in that
// layout by v1Bytes). A change to any of them is a change of search
// trajectory, not a refactor.
func TestGoldenFronts(t *testing.T) {
	p := zdt1{n: 10}
	const runDigest = "64fe75a8d52c88553d6d2b77e01adcc3dd92e9c1b61c3e2905ce5806ee1f0068"
	for _, w := range []int{1, 4} {
		res, err := Run(context.Background(), p, Options{PopSize: 32, Generations: 20, Seed: 11, Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		if got := archiveDigest(res.Archive); got != runDigest {
			t.Errorf("workers=%d: default run archive digest %s, want %s", w, got, runDigest)
		}
		if res.Evaluations != 32+32*20 {
			t.Errorf("workers=%d: evaluations %d", w, res.Evaluations)
		}
	}

	const islandDigest = "8b123e4384ea29524957e25ec2ed2ff3b85bb22bbbd0322c48568960b76257d1"
	isl, err := Run(context.Background(), p, Options{PopSize: 16, Generations: 20, Seed: 5, Workers: 2,
		Islands: 3, MigrateEvery: 5, Migrants: 3})
	if err != nil {
		t.Fatal(err)
	}
	if got := archiveDigest(isl.Archive); got != islandDigest {
		t.Errorf("3-island campaign archive digest %s, want %s", got, islandDigest)
	}

	// Checkpoints at generations 5, 10 and 15 of a 17-generation run.
	wantCheckpoints := []string{
		"6ac2cbb3b8428d3d7c1bf681121b8f46d4ae36bbd8047aae5e61752c1d46ada8",
		"6ac41dbb070f34a54ae7ed3b2bb6476c4cffe5a16c4994080874c050552708fd",
		"7a49ba65b95752ec718c12a6c5c922cb31191efcfdb08439ff004296ff34e71c",
	}
	var got []string
	_, err = Run(context.Background(), p, Options{
		PopSize: 32, Generations: 17, Seed: 11, Workers: 4, CheckpointEvery: 5,
		OnCheckpoint: func(cp *IslandCheckpoint) error {
			if len(cp.States) != 1 {
				t.Fatalf("%d island states in a single-population checkpoint", len(cp.States))
			}
			data, err := v1Bytes(cp.States[0])
			got = append(got, bytesDigest(data))
			return err
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(wantCheckpoints) {
		t.Fatalf("%d checkpoints, want %d", len(got), len(wantCheckpoints))
	}
	for i := range got {
		if got[i] != wantCheckpoints[i] {
			t.Errorf("checkpoint %d digest %s, want %s", i, got[i], wantCheckpoints[i])
		}
	}
}
