package model_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/casestudy"
	"repro/internal/core"
	"repro/internal/model"
)

// requireMapBytes requires Binding and Allocation to marshal to the
// bytes of the task- and resource-keyed maps they replaced, rebuilt
// here through the ID-based accessors.
func requireMapBytes(t *testing.T, what string, x *model.Implementation) {
	t.Helper()
	binding := make(map[model.TaskID]model.ResourceID)
	for _, task := range x.Spec.App.Tasks() {
		if r, ok := x.Binding.Lookup(task.ID); ok {
			binding[task.ID] = r
		}
	}
	allocation := make(map[model.ResourceID]bool)
	for _, r := range x.Spec.Arch.Resources() {
		if x.Allocation.Contains(r.ID) {
			allocation[r.ID] = true
		}
	}
	for _, c := range []struct {
		name      string
		got, want any
	}{
		{"binding", x.Binding, binding},
		{"allocation", x.Allocation, allocation},
		// perfbench serializes the fields through an []any.
		{"front entry", []any{x.Allocation, x.Binding, x.Routing}, []any{allocation, binding, x.Routing}},
	} {
		got, err := json.Marshal(c.got)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(c.want)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s %s: %s, map encoding %s", what, c.name, got, want)
		}
	}
}

// TestBindingAllocationJSONMatchesMaps pins the JSON bytes of decoded,
// hand-built and empty implementations to the map encoding.
func TestBindingAllocationJSONMatchesMaps(t *testing.T) {
	spec, err := casestudy.Build(casestudy.Options{ProfilesPerECU: 4})
	if err != nil {
		t.Fatal(err)
	}
	empty := model.NewImplementation(spec)
	for _, v := range []any{empty.Binding, empty.Allocation} {
		if b, _ := json.Marshal(v); string(b) != "{}" {
			t.Fatalf("empty implementation marshals to %s, want {}", b)
		}
	}
	requireMapBytes(t, "empty", empty)

	rng := rand.New(rand.NewSource(5))
	greedy, err := core.NewGreedyDecoder(spec)
	if err != nil {
		t.Fatal(err)
	}
	sat, err := core.NewSATDecoder(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		for _, dec := range []core.Decoder{greedy, sat} {
			g := make([]float64, dec.GenotypeLen())
			for k := range g {
				g[k] = rng.Float64()
			}
			x, err := dec.Decode(g)
			if err != nil {
				t.Fatal(err)
			}
			requireMapBytes(t, "decoded", x)
		}
	}
}

// TestBindingJSONEscapesLikeMaps covers IDs that JSON escapes.
func TestBindingJSONEscapesLikeMaps(t *testing.T) {
	app := model.NewApplicationGraph()
	for _, id := range []model.TaskID{"a<b", "t&\"1\"", "ü"} {
		if err := app.AddTask(&model.Task{ID: id}); err != nil {
			t.Fatal(err)
		}
	}
	arch := model.NewArchitectureGraph()
	for _, id := range []model.ResourceID{"ecu>1", "gw\\"} {
		if err := arch.AddResource(&model.Resource{ID: id}); err != nil {
			t.Fatal(err)
		}
	}
	spec := model.NewSpecification(app, arch)
	x := model.NewImplementation(spec)
	x.Bind("a<b", "ecu>1")
	x.Bind("ü", "gw\\")
	requireMapBytes(t, "escaped IDs", x)
}

// TestIndexOnCaseStudies checks the Index tables against the ID-based
// views on the full and the 4-profile case study and on a case study
// with SBST alternatives.
func TestIndexOnCaseStudies(t *testing.T) {
	for _, opts := range []casestudy.Options{{}, {ProfilesPerECU: 4}, {ProfilesPerECU: 4, IncludeSBST: true}} {
		spec, err := casestudy.Build(opts)
		if err != nil {
			t.Fatal(err)
		}
		ix := spec.Index()
		for p, task := range spec.App.Tasks() {
			var pair *model.Task
			switch task.Kind {
			case model.KindBISTTest:
				pair = spec.DataTaskFor(task)
			case model.KindBISTData:
				pair = spec.TestTaskFor(task)
			}
			want := int32(-1)
			if pair != nil {
				want = ix.TaskPos(pair.ID)
			}
			if ix.Tasks[p] != task || ix.Pair[p] != want {
				t.Fatalf("%+v: task %q at %d: pair %d, want %d", opts, task.ID, p, ix.Pair[p], want)
			}
			out := spec.App.Outgoing(task.ID)
			if len(ix.Out[p]) != len(out) {
				t.Fatalf("%+v: task %q sends %d messages, want %d", opts, task.ID, len(ix.Out[p]), len(out))
			}
			for i, m := range out {
				if ix.Messages[ix.Out[p][i]].ID != m {
					t.Fatalf("%+v: task %q: outgoing %d is %q, want %q", opts, task.ID, i, ix.Messages[ix.Out[p][i]].ID, m)
				}
			}
			targets := spec.MappingTargets(task.ID)
			if len(ix.Targets[p]) != len(targets) {
				t.Fatalf("%+v: task %q: %d targets, want %d", opts, task.ID, len(ix.Targets[p]), len(targets))
			}
			for i, r := range targets {
				if ix.Resources[ix.Targets[p][i]].ID != r {
					t.Fatalf("%+v: task %q: target %d is %q, want %q", opts, task.ID, i, ix.Resources[ix.Targets[p][i]].ID, r)
				}
			}
		}
		for p, m := range spec.App.Messages() {
			if ix.Tasks[ix.Src[p]].ID != m.Src || len(ix.Dst[p]) != len(m.Dst) {
				t.Fatalf("%+v: message %q endpoints differ", opts, m.ID)
			}
			for i, d := range m.Dst {
				if ix.Tasks[ix.Dst[p][i]].ID != d {
					t.Fatalf("%+v: message %q receiver %d differs", opts, m.ID, i)
				}
			}
		}
	}
}

// TestIndexPathsOnCaseStudies checks the path table against
// ShortestPath on the small and the full case study and on two ECUs
// joined by two parallel buses, where equal-length paths tie.
func TestIndexPathsOnCaseStudies(t *testing.T) {
	small, err := casestudy.Small(3, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	full, err := casestudy.Build(casestudy.Options{})
	if err != nil {
		t.Fatal(err)
	}
	arch := model.NewArchitectureGraph()
	for _, id := range []model.ResourceID{"ecu1", "ecu2", "can", "can2", "gw"} {
		if err := arch.AddResource(&model.Resource{ID: id}); err != nil {
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
	twoBus := model.NewSpecification(model.NewApplicationGraph(), arch)
	for _, spec := range []*model.Specification{small, full, twoBus} {
		model.RequirePathsMatchOracle(t, spec)
	}
	ix := twoBus.Index()
	if hops, _ := ix.Path(ix.ResourcePos("ecu1"), ix.ResourcePos("gw")); fmt.Sprint(hops) != "[ecu1 can gw]" {
		t.Fatalf("tied path ecu1→gw is %v, want the lower-ID bus", hops)
	}
}
