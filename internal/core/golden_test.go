package core

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"repro/internal/casestudy"
	"repro/internal/moea"
)

// archiveDigest is the SHA-256 of an optimizer archive's genotypes and
// objective vectors in archive order, bit for bit.
func archiveDigest(archive []*moea.Individual) string {
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

func frontDigest(t *testing.T, res *Result) string {
	sum := sha256.Sum256(frontBytes(t, res))
	return hex.EncodeToString(sum[:])
}

// TestGoldenExplorerFronts pins the explorer's outputs on the small
// case study (greedy decoder) to digests recorded before the
// single-population and island drivers were unified: the optimizer
// archive and the exploration front of a default run at workers 1 and
// 4, and the front of a 3-island, migrate-5 campaign. It also pins a
// greedy front on the full case study at workers 1 and 4, recorded
// before the greedy decoder compiled its gene layout into tables.
func TestGoldenExplorerFronts(t *testing.T) {
	spec := smallSpec(t)
	dec, err := NewGreedyDecoder(spec)
	if err != nil {
		t.Fatal(err)
	}
	const (
		archiveWant = "1efd8a38321857dbce6fc41c07f982da91369e1ff5c4478786891820f80bad6e"
		frontWant   = "bece700c89c289ee371d5d29ec990986b6343bf54b76264ddc4c0e9ef57d9fd0"
	)
	for _, w := range []int{1, 4} {
		opt := moea.Options{PopSize: 16, Generations: 10, Seed: 21, Workers: w}
		mres, err := moea.Run(context.Background(), NewExplorer(spec, dec), opt)
		if err != nil {
			t.Fatal(err)
		}
		if got := archiveDigest(mres.Archive); got != archiveWant {
			t.Errorf("workers=%d: archive digest %s, want %s", w, got, archiveWant)
		}
		res, err := NewExplorer(spec, dec).Run(opt)
		if err != nil {
			t.Fatal(err)
		}
		if got := frontDigest(t, res); got != frontWant {
			t.Errorf("workers=%d: front digest %s, want %s", w, got, frontWant)
		}
	}

	// The full case study (36 profiles per ECU), where the greedy
	// decoder's compiled tables carry the most entries.
	full, err := casestudy.Build(casestudy.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fullDec, err := NewGreedyDecoder(full)
	if err != nil {
		t.Fatal(err)
	}
	const fullWant = "c94d593777f2ca557ae8b5dc5a42e932b5441ccb837d14d29b0f8149f06db4f4"
	for _, w := range []int{1, 4} {
		res, err := NewExplorer(full, fullDec).Run(moea.Options{PopSize: 64, Generations: 10, Seed: 3, Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		if got := frontDigest(t, res); got != fullWant {
			t.Errorf("full case study, workers=%d: front digest %s, want %s", w, got, fullWant)
		}
	}

	const islandWant = "ecf32afffb34d56877c6ed19d5520c0c84ee5a79201cbb8510c885dff1bb7661"
	res, err := NewExplorer(spec, dec).RunContext(context.Background(), moea.Options{PopSize: 12, Generations: 12, Seed: 9, Workers: 2,
		Islands: 3, MigrateEvery: 5, Migrants: 3})
	if err != nil {
		t.Fatal(err)
	}
	if got := frontDigest(t, res); got != islandWant {
		t.Errorf("3-island front digest %s, want %s", got, islandWant)
	}
}
