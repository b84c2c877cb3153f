package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/casestudy"
	"repro/internal/model"
	"repro/internal/moea"
)

// greedyLayout recomputes the greedy decoder's gene layout from the
// specification alone: the mapping targets of the choice tasks
// (mandatory tasks with ≥ 2 mapping options, in task-ID order) and the
// ECUs offering BIST.
func greedyLayout(spec *model.Specification) (choices [][]model.ResourceID, ecus []model.ResourceID) {
	for _, t := range spec.App.Tasks() {
		if opts := spec.MappingTargets(t.ID); !t.Kind.Diagnostic() && len(opts) > 1 {
			choices = append(choices, opts)
		}
	}
	for _, r := range spec.Arch.ResourcesOfKind(model.KindECU) {
		if len(spec.BISTTasksForECU(r.ID)) > 0 {
			ecus = append(ecus, r.ID)
		}
	}
	return choices, ecus
}

// identityGenotypes returns 512 seeded genotypes plus boundary cases:
// every gene 0, 0.5, 1 and the largest float below 1; seeded genotypes
// whose profile genes all pick "no BIST"; and, per BIST ECU, a genotype
// that keeps every choice task off that ECU while asking for its last
// profile, so BIST lands on ECUs that may host no mandatory task.
func identityGenotypes(spec *model.Specification, n int) [][]float64 {
	choices, ecus := greedyLayout(spec)
	base := len(choices)
	rng := rand.New(rand.NewSource(19))
	random := func() []float64 {
		g := make([]float64, n)
		for i := range g {
			g[i] = rng.Float64()
		}
		return g
	}
	var out [][]float64
	for i := 0; i < 512; i++ {
		out = append(out, random())
	}
	for _, v := range []float64{0, 0.5, 1, math.Nextafter(1, 0)} {
		g := make([]float64, n)
		for i := range g {
			g[i] = v
		}
		out = append(out, g)
	}
	for i := 0; i < 8; i++ {
		g := random()
		for k := range ecus {
			g[base+2*k] = 0
		}
		out = append(out, g)
	}
	for avoid, ecu := range ecus {
		g := random()
		for i, opts := range choices {
			for j, r := range opts {
				if r != ecu {
					g[i] = (float64(j) + 0.5) / float64(len(opts))
					break
				}
			}
		}
		for k := range ecus {
			g[base+2*k] = 1
			g[base+2*k+1] = float64((k+avoid)%2) * 0.75
		}
		out = append(out, g)
	}
	return out
}

// writeImpl writes a canonical serialization of x: the allocated
// resources sorted, the bindings sorted by task, and the routes sorted
// by (message, destination) with their hops.
func writeImpl(h hash.Hash, x *model.Implementation) {
	fmt.Fprintln(h, "A", x.AllocatedResources())
	for _, m := range x.Binding.Mappings() {
		fmt.Fprintf(h, "B %s %s\n", m.Task, m.Resource)
	}
	routes := slices.Clone(x.Routing)
	sort.Slice(routes, func(i, j int) bool {
		if routes[i].Msg != routes[j].Msg {
			return routes[i].Msg < routes[j].Msg
		}
		return routes[i].Dst < routes[j].Dst
	})
	for _, e := range routes {
		fmt.Fprintf(h, "W %s %s %v\n", e.Msg, e.Dst, e.Route.Hops)
	}
	fmt.Fprintln(h, "--")
}

// TestGreedyDecodeIdentity pins the greedy decoder's implementations bit
// for bit on the 36- and 4-profile case studies under every storage
// override. The digests were recorded from the per-call decoder that
// rescanned the specification on every decode; the compiled decode plan
// must reproduce them. Every implementation must also pass Check.
func TestGreedyDecodeIdentity(t *testing.T) {
	want := map[string]string{
		"36/+0": "4ca480a36b95b2012755a6584dea2ea7af92cc0ea24d5347f99a76625b010a18",
		"36/+1": "96c32abab7ec609647073c91fe7566a090ce45d46369a25d70624e09bae364f5",
		"36/-1": "f17e9caf35ef977a19f1f41f9876502065df07bc5d988ea21c6230bd38fe8e03",
		"4/+0":  "4aca4b9dc4c729219d3e009ab2b33d768d39edb7fe01c96123214f143d0ba76d",
		"4/+1":  "8dedbbab410712013c7d877bfeaf1a372dca4a6f67d8d375733041086ca55b1f",
		"4/-1":  "b20d3053b2b5de1d0212d8eaf2f86926642df36ac645854f6d16cbc98e4baff3",
	}
	for _, profiles := range []int{36, 4} {
		spec, err := casestudy.Build(casestudy.Options{ProfilesPerECU: profiles})
		if err != nil {
			t.Fatal(err)
		}
		dec, err := NewGreedyDecoder(spec)
		if err != nil {
			t.Fatal(err)
		}
		genotypes := identityGenotypes(spec, dec.GenotypeLen())
		for _, storage := range []int{0, 1, -1} {
			dec.StorageChoice = storage
			h := sha256.New()
			for i, g := range genotypes {
				x, err := dec.Decode(g)
				if err != nil {
					t.Fatalf("%d profiles, storage %+d, genotype %d: %v", profiles, storage, i, err)
				}
				if errs := x.Check(); len(errs) != 0 {
					t.Fatalf("%d profiles, storage %+d, genotype %d: infeasible: %v", profiles, storage, i, errs[0])
				}
				writeImpl(h, x)
			}
			key := fmt.Sprintf("%d/%+d", profiles, storage)
			if got := hex.EncodeToString(h.Sum(nil)); got != want[key] {
				t.Errorf("%s: digest %s, want %s", key, got, want[key])
			}
		}
	}
}

// TestGreedyDecodeConcurrent decodes on one decoder from 8 goroutines
// and requires the serial results; under -race it also guards the
// decoder's shared read-only tables.
func TestGreedyDecodeConcurrent(t *testing.T) {
	spec, err := casestudy.Build(casestudy.Options{ProfilesPerECU: 36})
	if err != nil {
		t.Fatal(err)
	}
	dec, err := NewGreedyDecoder(spec)
	if err != nil {
		t.Fatal(err)
	}
	genotypes := identityGenotypes(spec, dec.GenotypeLen())[:64]
	digest := func(x *model.Implementation) string {
		h := sha256.New()
		writeImpl(h, x)
		return hex.EncodeToString(h.Sum(nil))
	}
	serial := make([]string, len(genotypes))
	for i, g := range genotypes {
		x, err := dec.Decode(g)
		if err != nil {
			t.Fatal(err)
		}
		serial[i] = digest(x)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := range genotypes {
				i := (k + 8*w) % len(genotypes)
				x, err := dec.Decode(genotypes[i])
				if err != nil {
					errs <- err
					return
				}
				if got := digest(x); got != serial[i] {
					errs <- fmt.Errorf("goroutine %d, genotype %d: concurrent decode differs from serial", w, i)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestGreedyDecodeRefusesLateConnect: a link added after the decoder
// was built can shorten routes, so the decoder refuses to decode with
// the paths of the index it was built on.
func TestGreedyDecodeRefusesLateConnect(t *testing.T) {
	spec := twoBusSpec(t)
	dec, err := NewGreedyDecoder(spec)
	if err != nil {
		t.Fatal(err)
	}
	g := make([]float64, dec.GenotypeLen())
	if _, err := dec.Decode(g); err != nil {
		t.Fatal(err)
	}
	if err := spec.Arch.Connect("ecu1", "ecu2"); err != nil {
		t.Fatal(err)
	}
	if _, err := dec.Decode(g); err == nil || !strings.Contains(err.Error(), "specification changed") {
		t.Fatalf("decode after Connect: err = %v, want the stale decoder refused", err)
	}
}

// twoBusSpec is a two-ECU specification on two parallel buses, so
// equal-length paths tie, whose data tasks each have one storage
// option: bD1 only the gateway, bD2 only its ECU.
func twoBusSpec(t *testing.T) *model.Specification {
	t.Helper()
	app := model.NewApplicationGraph()
	arch := model.NewArchitectureGraph()
	for _, r := range []*model.Resource{
		{ID: "ecu1", Kind: model.KindECU}, {ID: "ecu2", Kind: model.KindECU},
		{ID: "can", Kind: model.KindBus}, {ID: "can2", Kind: model.KindBus},
		{ID: "gw", Kind: model.KindGateway},
	} {
		if err := arch.AddResource(r); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range []model.ResourceID{"ecu1", "ecu2", "gw"} {
		for _, bus := range []model.ResourceID{"can", "can2"} {
			if err := arch.Connect(r, bus); err != nil {
				t.Fatal(err)
			}
		}
	}
	spec := model.NewSpecification(app, arch)
	spec.Gateway = "gw"
	for _, task := range []struct {
		task *model.Task
		to   model.ResourceID
	}{
		{&model.Task{ID: "t1", Kind: model.KindFunctional}, "ecu1"},
		{&model.Task{ID: "t2", Kind: model.KindFunctional}, "ecu2"},
		{&model.Task{ID: "bR", Kind: model.KindCollect}, "gw"},
		{&model.Task{ID: "bT1", Kind: model.KindBISTTest, TestedECU: "ecu1", Profile: 1}, "ecu1"},
		{&model.Task{ID: "bD1", Kind: model.KindBISTData, TestedECU: "ecu1", Profile: 1}, "gw"},
		{&model.Task{ID: "bT2", Kind: model.KindBISTTest, TestedECU: "ecu2", Profile: 1}, "ecu2"},
		{&model.Task{ID: "bD2", Kind: model.KindBISTData, TestedECU: "ecu2", Profile: 1}, "ecu2"},
	} {
		if err := app.AddTask(task.task); err != nil {
			t.Fatal(err)
		}
		if err := spec.AddMapping(task.task.ID, task.to); err != nil {
			t.Fatal(err)
		}
	}
	for _, m := range []*model.Message{
		{ID: "c1", Src: "t1", Dst: []model.TaskID{"t2"}},
		{ID: "cD1", Src: "bD1", Dst: []model.TaskID{"bT1"}},
		{ID: "cR1", Src: "bT1", Dst: []model.TaskID{"bR"}},
		{ID: "cD2", Src: "bD2", Dst: []model.TaskID{"bT2"}},
		{ID: "cR2", Src: "bT2", Dst: []model.TaskID{"bR"}},
	} {
		if err := app.AddMessage(m); err != nil {
			t.Fatal(err)
		}
	}
	return spec
}

// TestGreedyStorageFallback covers the storage fallback the case
// studies never reach (their data tasks map to both the ECU and the
// gateway): a data task that cannot be stored where the storage gene
// or override asks is stored at its first mapping target.
func TestGreedyStorageFallback(t *testing.T) {
	spec := twoBusSpec(t)
	dec, err := NewGreedyDecoder(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Genes: per ECU, profile 1 and then a storage gene.
	for _, tc := range []struct {
		storage int
		genes   []float64
	}{
		{0, []float64{1, 0, 1, 0}},  // both ask for local storage
		{0, []float64{1, 1, 1, 1}},  // both ask for the gateway
		{1, []float64{1, 1, 1, 1}},  // local forced
		{-1, []float64{1, 0, 1, 0}}, // gateway forced
	} {
		dec.StorageChoice = tc.storage
		x, err := dec.Decode(tc.genes)
		if err != nil {
			t.Fatal(err)
		}
		if errs := x.Check(); len(errs) != 0 {
			t.Fatalf("storage %+d, genes %v: infeasible: %v", tc.storage, tc.genes, errs[0])
		}
		if x.Binding.Get("bD1") != "gw" || x.Binding.Get("bD2") != "ecu2" {
			t.Errorf("storage %+d, genes %v: bD1 on %s, bD2 on %s; want gw and ecu2", tc.storage, tc.genes, x.Binding.Get("bD1"), x.Binding.Get("bD2"))
		}
		if got, _ := x.RouteTo("cD1", "bT1"); got.String() != "gw->can->ecu1" {
			t.Errorf("storage %+d, genes %v: cD1 routed %s", tc.storage, tc.genes, got)
		}
	}
}

// ownedDecoder hands out owned clones of the greedy decoder's borrowed
// implementations, so the explorer keeps a Solution payload per
// evaluation, as it did before decodes were borrowed.
type ownedDecoder struct{ *GreedyDecoder }

func (d ownedDecoder) DecodeWorker(worker int, genotype []float64) (*model.Implementation, error) {
	x, err := d.GreedyDecoder.DecodeWorker(worker, genotype)
	if err != nil {
		return nil, err
	}
	return x.Clone(), nil
}

// TestBorrowedFrontsMatchOwned: the explorer scores the greedy
// decoder's borrowed implementations without keeping them and decodes
// the archive again at the end; its fronts must be byte-identical to
// those of a decoder handing out owned clones, whose payloads the
// archive keeps, at several worker counts and on an island campaign.
// Every front solution must be an owned, feasible implementation.
func TestBorrowedFrontsMatchOwned(t *testing.T) {
	spec, err := casestudy.Build(casestudy.Options{})
	if err != nil {
		t.Fatal(err)
	}
	dec, err := NewGreedyDecoder(spec)
	if err != nil {
		t.Fatal(err)
	}
	runs := []moea.Options{
		{PopSize: 64, Generations: 10, Seed: 3, Workers: 1},
		{PopSize: 64, Generations: 10, Seed: 3, Workers: 2},
		{PopSize: 64, Generations: 10, Seed: 3, Workers: 4},
		{PopSize: 32, Generations: 12, Seed: 9, Workers: 2, Islands: 3, MigrateEvery: 4, Migrants: 3},
	}
	for _, opt := range runs {
		want, err := NewExplorer(spec, ownedDecoder{dec}).Run(opt)
		if err != nil {
			t.Fatal(err)
		}
		got, err := NewExplorer(spec, dec).Run(opt)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(frontBytes(t, got), frontBytes(t, want)) {
			t.Fatalf("workers=%d islands=%d: front differs from the owned decoder's", opt.Workers, opt.Islands)
		}
		for i, s := range got.Solutions {
			if s.Impl.Borrowed() {
				t.Fatalf("workers=%d islands=%d: solution %d is borrowed", opt.Workers, opt.Islands, i)
			}
			if errs := s.Impl.Check(); len(errs) != 0 {
				t.Fatalf("workers=%d islands=%d: solution %d infeasible: %v", opt.Workers, opt.Islands, i, errs[0])
			}
		}
	}
}
