package model_test

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/casestudy"
	"repro/internal/core"
	"repro/internal/model"
)

// rowView is what a walk over every task position of the binding
// finds: the bound positions, and Len, Mappings, SelectedBIST and
// MemoryUse computed from them.
type rowView struct {
	pos      []int32
	mappings []model.Mapping
	bist     map[model.ResourceID]*model.Task
	mem      map[model.ResourceID]int64
}

func scanRow(x *model.Implementation) rowView {
	ix := x.Index()
	v := rowView{bist: map[model.ResourceID]*model.Task{}, mem: map[model.ResourceID]int64{}}
	for t, task := range ix.Tasks {
		r := x.Binding.At(int32(t))
		if r < 0 {
			continue
		}
		res := ix.Resources[r].ID
		v.pos = append(v.pos, int32(t))
		v.mappings = append(v.mappings, model.Mapping{Task: task.ID, Resource: res})
		if task.Kind == model.KindBISTTest {
			v.bist[res] = task
		}
		v.mem[res] += task.MemBytes
	}
	return v
}

// boundPositions lists the positions the binding's iterator visits.
func boundPositions(b model.Binding) []int32 {
	var out []int32
	for t := b.Next(0); t >= 0; t = b.Next(t + 1) {
		out = append(out, t)
	}
	return out
}

// requireBoundMatchesRow requires the bound-task set to agree with a
// full scan of the binding row: the iterator, Next from any start, and
// every accessor that walks the set.
func requireBoundMatchesRow(t *testing.T, what string, x *model.Implementation, rng *rand.Rand) {
	t.Helper()
	want := scanRow(x)
	if got := boundPositions(x.Binding); !slices.Equal(got, want.pos) {
		t.Fatalf("%s: iterator visits %v, row has %v", what, got, want.pos)
	}
	n := len(x.Index().Tasks)
	for range 8 {
		from := int32(rng.Intn(n + 70))
		i, _ := slices.BinarySearch(want.pos, from)
		next := int32(-1)
		if i < len(want.pos) {
			next = want.pos[i]
		}
		if got := x.Binding.Next(from); got != next {
			t.Fatalf("%s: Next(%d) = %d, want %d", what, from, got, next)
		}
	}
	if got := x.Binding.Len(); got != len(want.pos) {
		t.Fatalf("%s: Len = %d, row has %d bound tasks", what, got, len(want.pos))
	}
	if got := x.Binding.Mappings(); !slices.Equal(got, want.mappings) {
		t.Fatalf("%s: Mappings = %v, row gives %v", what, got, want.mappings)
	}
	if got := x.SelectedBIST(); !reflect.DeepEqual(got, want.bist) {
		t.Fatalf("%s: SelectedBIST = %v, row gives %v", what, got, want.bist)
	}
	if got := x.MemoryUse(); !reflect.DeepEqual(got, want.mem) {
		t.Fatalf("%s: MemoryUse = %v, row gives %v", what, got, want.mem)
	}
}

// requireDeepClone requires a clone to equal x and to share none of
// its binding: rebinding every task of the clone leaves x as it was.
func requireDeepClone(t *testing.T, what string, x *model.Implementation, rng *rand.Rand) {
	t.Helper()
	before := scanRow(x)
	c := x.Clone()
	if !reflect.DeepEqual(c.Binding, x.Binding) || !reflect.DeepEqual(c.Allocation, x.Allocation) || c.Borrowed() {
		t.Fatalf("%s: clone differs from its original", what)
	}
	ix := x.Index()
	for tp := range ix.Tasks {
		if c.Binding.At(int32(tp)) >= 0 {
			c.Binding.Set(int32(tp), -1)
		} else {
			c.Binding.Set(int32(tp), int32(rng.Intn(len(ix.Resources))))
		}
	}
	c.Allocation.Add(0)
	if !reflect.DeepEqual(scanRow(x), before) {
		t.Fatalf("%s: rebinding the clone changed the original", what)
	}
	requireBoundMatchesRow(t, what+" (mutated clone)", c, rng)
	requireBoundMatchesRow(t, what+" (original after clone)", x, rng)
}

// TestBoundSetMatchesRow: the binding's bound-task bitset always agrees
// with its row. Random Set, unset, Reset and Clone sequences on a
// borrowed implementation of the full case study (1,126 task positions,
// 18 bitset words), then greedy decodes into one worker's reused
// implementation and SAT decodes, are each followed by a check of the
// iterator, Len, Mappings, SelectedBIST and MemoryUse against a full
// scan of the row, and each clone must be deep.
func TestBoundSetMatchesRow(t *testing.T) {
	spec, err := casestudy.Build(casestudy.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ix := spec.Index()
	rng := rand.New(rand.NewSource(28))
	x := model.NewBorrowedImplementation(spec)
	requireBoundMatchesRow(t, "empty", x, rng)
	for step := range 3000 {
		switch op := rng.Intn(20); {
		case op < 12:
			tp := int32(rng.Intn(len(ix.Tasks)))
			if rng.Intn(8) == 0 {
				tp = int32(len(ix.Tasks) - 1 - rng.Intn(3)) // the last word's top positions
			}
			x.Binding.Set(tp, int32(rng.Intn(len(ix.Resources))))
		case op < 17:
			bound := boundPositions(x.Binding)
			if len(bound) > 0 {
				x.Binding.Set(bound[rng.Intn(len(bound))], -1)
			} else {
				x.Binding.Set(int32(rng.Intn(len(ix.Tasks))), -1)
			}
		case op < 18:
			x.Reset()
			if x.Binding.Len() != 0 || x.Allocation.Len() != 0 || len(x.Routing) != 0 || !x.Borrowed() {
				t.Fatalf("step %d: Reset left %d bound, %d allocated, %d routes", step, x.Binding.Len(), x.Allocation.Len(), len(x.Routing))
			}
		default:
			requireDeepClone(t, "random binding", x, rng)
		}
		requireBoundMatchesRow(t, "random binding", x, rng)
	}

	greedy, err := core.NewGreedyDecoder(spec)
	if err != nil {
		t.Fatal(err)
	}
	var prev *model.Implementation
	reused := 0
	for i := range 300 {
		g := make([]float64, greedy.GenotypeLen())
		for k := range g {
			g[k] = rng.Float64()
			if i%3 == 0 {
				g[k] = 0.5 + g[k]/2 // BIST on most ECUs
			}
		}
		x, err := greedy.DecodeWorker(0, g)
		if err != nil {
			t.Fatal(err)
		}
		if x == prev {
			reused++ // a GC may drop the worker's implementation between decodes
		}
		prev = x
		requireBoundMatchesRow(t, "greedy decode", x, rng)
		if i%10 == 0 {
			requireDeepClone(t, "greedy decode", x, rng)
		}
		owned, err := greedy.Decode(g)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(x.Binding, owned.Binding) {
			t.Fatal("the reused implementation's binding differs from a fresh decode's")
		}
	}
	if reused == 0 {
		t.Fatal("the greedy decoder never reused the worker's implementation")
	}

	small, err := casestudy.Build(casestudy.Options{ProfilesPerECU: 4})
	if err != nil {
		t.Fatal(err)
	}
	sat, err := core.NewSATDecoder(small, 0)
	if err != nil {
		t.Fatal(err)
	}
	for range 40 {
		g := make([]float64, sat.GenotypeLen())
		for k := range g {
			g[k] = rng.Float64()
		}
		x, err := sat.DecodeWorker(0, g)
		if err != nil {
			t.Fatal(err)
		}
		requireBoundMatchesRow(t, "SAT decode", x, rng)
		requireDeepClone(t, "SAT decode", x, rng)
	}
}
