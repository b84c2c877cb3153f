package model

import (
	"encoding/json"
	"slices"
	"strings"
	"testing"
)

// buildTinySpec constructs a minimal specification with two ECUs on one
// bus plus a gateway, one functional chain t1 -c1-> t2, one BIST
// test/data pair for ecu1, and the collection task on the gateway.
func buildTinySpec(t *testing.T) *Specification {
	t.Helper()
	app := NewApplicationGraph()
	mustAddTask := func(task *Task) {
		if err := app.AddTask(task); err != nil {
			t.Fatalf("AddTask(%v): %v", task.ID, err)
		}
	}
	mustAddTask(&Task{ID: "t1", Kind: KindFunctional, WCETms: 1})
	mustAddTask(&Task{ID: "t2", Kind: KindFunctional, WCETms: 1})
	mustAddTask(&Task{ID: "bR", Kind: KindCollect})
	mustAddTask(&Task{ID: "bT1", Kind: KindBISTTest, TestedECU: "ecu1", Coverage: 0.99, WCETms: 5, Profile: 1})
	mustAddTask(&Task{ID: "bD1", Kind: KindBISTData, TestedECU: "ecu1", MemBytes: 1 << 20})
	mustAddMsg := func(m *Message) {
		if err := app.AddMessage(m); err != nil {
			t.Fatalf("AddMessage(%v): %v", m.ID, err)
		}
	}
	mustAddMsg(&Message{ID: "c1", Src: "t1", Dst: []TaskID{"t2"}, SizeBytes: 8, PeriodMS: 10})
	mustAddMsg(&Message{ID: "cD1", Src: "bD1", Dst: []TaskID{"bT1"}, SizeBytes: 8, PeriodMS: 10})
	mustAddMsg(&Message{ID: "cR1", Src: "bT1", Dst: []TaskID{"bR"}, SizeBytes: 8, PeriodMS: 100})

	arch := NewArchitectureGraph()
	mustAddRes := func(r *Resource) {
		if err := arch.AddResource(r); err != nil {
			t.Fatalf("AddResource(%v): %v", r.ID, err)
		}
	}
	mustAddRes(&Resource{ID: "ecu1", Kind: KindECU, Cost: 10, BISTCapable: true, BISTCost: 1, MemCostPerKB: 0.01})
	mustAddRes(&Resource{ID: "ecu2", Kind: KindECU, Cost: 10})
	mustAddRes(&Resource{ID: "bus1", Kind: KindBus, Cost: 2, BitRate: 500_000})
	mustAddRes(&Resource{ID: "gw", Kind: KindGateway, Cost: 20, MemCostPerKB: 0.005})
	for _, pair := range [][2]ResourceID{{"ecu1", "bus1"}, {"ecu2", "bus1"}, {"gw", "bus1"}} {
		if err := arch.Connect(pair[0], pair[1]); err != nil {
			t.Fatalf("Connect(%v): %v", pair, err)
		}
	}

	spec := NewSpecification(app, arch)
	spec.Gateway = "gw"
	mustMap := func(task TaskID, r ResourceID) {
		if err := spec.AddMapping(task, r); err != nil {
			t.Fatalf("AddMapping(%v,%v): %v", task, r, err)
		}
	}
	mustMap("t1", "ecu1")
	mustMap("t2", "ecu2")
	mustMap("t2", "ecu1")
	mustMap("bR", "gw")
	mustMap("bT1", "ecu1")
	mustMap("bD1", "ecu1")
	mustMap("bD1", "gw")
	return spec
}

func bindTiny(spec *Specification) *Implementation {
	x := NewImplementation(spec)
	x.Bind("t1", "ecu1")
	x.Bind("t2", "ecu2")
	x.Bind("bR", "gw")
	x.Bind("bT1", "ecu1")
	x.Bind("bD1", "gw")
	x.SetRoute("c1", "t2", Route{Hops: []ResourceID{"ecu1", "bus1", "ecu2"}})
	x.SetRoute("cD1", "bT1", Route{Hops: []ResourceID{"gw", "bus1", "ecu1"}})
	x.SetRoute("cR1", "bR", Route{Hops: []ResourceID{"ecu1", "bus1", "gw"}})
	return x
}

func TestSpecificationValidate(t *testing.T) {
	spec := buildTinySpec(t)
	if err := spec.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestValidateRejectsMissingGateway(t *testing.T) {
	spec := buildTinySpec(t)
	spec.Gateway = ""
	if err := spec.Validate(); err == nil {
		t.Fatal("Validate accepted empty gateway")
	}
}

func TestValidateRejectsBadDataTaskMapping(t *testing.T) {
	spec := buildTinySpec(t)
	if err := spec.AddMapping("bD1", "ecu2"); err != nil {
		t.Fatalf("AddMapping: %v", err)
	}
	err := spec.Validate()
	if err == nil || !strings.Contains(err.Error(), "bD1") {
		t.Fatalf("Validate = %v, want bD1 mapping error", err)
	}
}

func TestDuplicateTaskRejected(t *testing.T) {
	app := NewApplicationGraph()
	if err := app.AddTask(&Task{ID: "a"}); err != nil {
		t.Fatal(err)
	}
	if err := app.AddTask(&Task{ID: "a"}); err == nil {
		t.Fatal("duplicate task accepted")
	}
}

func TestMessageRequiresEndpoints(t *testing.T) {
	app := NewApplicationGraph()
	if err := app.AddTask(&Task{ID: "a"}); err != nil {
		t.Fatal(err)
	}
	if err := app.AddMessage(&Message{ID: "m", Src: "a", Dst: []TaskID{"missing"}}); err == nil {
		t.Fatal("message to unknown task accepted")
	}
	if err := app.AddMessage(&Message{ID: "m", Src: "a"}); err == nil {
		t.Fatal("message without receivers accepted")
	}
}

func TestShortestPath(t *testing.T) {
	spec := buildTinySpec(t)
	path, ok := spec.Arch.ShortestPath("ecu1", "gw", nil)
	if !ok {
		t.Fatal("no path ecu1->gw")
	}
	want := []ResourceID{"ecu1", "bus1", "gw"}
	if len(path) != len(want) {
		t.Fatalf("path = %v, want %v", path, want)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("path = %v, want %v", path, want)
		}
	}
	if p, ok := spec.Arch.ShortestPath("ecu1", "ecu1", nil); !ok || len(p) != 1 {
		t.Fatalf("self path = %v, %v", p, ok)
	}
}

func TestShortestPathRespectsAllow(t *testing.T) {
	spec := buildTinySpec(t)
	_, ok := spec.Arch.ShortestPath("ecu1", "gw", func(r ResourceID) bool { return r != "bus1" })
	if ok {
		t.Fatal("path found despite blocked bus")
	}
}

func TestImplementationCheckFeasible(t *testing.T) {
	spec := buildTinySpec(t)
	x := bindTiny(spec)
	if errs := x.Check(); len(errs) != 0 {
		t.Fatalf("Check = %v, want feasible", errs)
	}
	if !x.Feasible() {
		t.Fatal("Feasible = false")
	}
}

func TestCheckDetectsUnboundMandatory(t *testing.T) {
	spec := buildTinySpec(t)
	x := bindTiny(spec)
	delete(x.Binding, "t2")
	wantRuleViolated(t, x, "binding")
}

func TestCheckDetectsEq3b(t *testing.T) {
	spec := buildTinySpec(t)
	x := bindTiny(spec)
	delete(x.Binding, "bD1")
	x.Routing = slices.DeleteFunc(x.Routing, func(e RouteEntry) bool { return e.Msg == "cD1" })
	wantRuleViolated(t, x, "3b")
}

func TestCheckDetectsEq2h(t *testing.T) {
	spec := buildTinySpec(t)
	x := bindTiny(spec)
	// Move t1 away so ecu1 hosts only diagnosis tasks.
	x.Bind("t1", "ecu2")
	x.SetRoute("c1", "t2", Route{Hops: []ResourceID{"ecu2"}})
	wantRuleViolated(t, x, "2h")
}

func TestCheckDetectsBrokenRoute(t *testing.T) {
	spec := buildTinySpec(t)
	x := bindTiny(spec)
	x.SetRoute("c1", "t2", Route{Hops: []ResourceID{"ecu1", "ecu2"}}) // not adjacent
	wantRuleViolated(t, x, "2g")
}

func TestCheckDetectsCycle(t *testing.T) {
	spec := buildTinySpec(t)
	x := bindTiny(spec)
	x.SetRoute("c1", "t2", Route{Hops: []ResourceID{"ecu1", "bus1", "ecu1", "bus1", "ecu2"}})
	wantRuleViolated(t, x, "2d")
}

func TestCheckDetectsMemoryOverflow(t *testing.T) {
	spec := buildTinySpec(t)
	spec.Arch.Resource("gw").MemCapBytes = 10
	x := bindTiny(spec)
	wantRuleViolated(t, x, "memory")
}

func wantRuleViolated(t *testing.T, x *Implementation, rule string) {
	t.Helper()
	errs := x.Check()
	for _, e := range errs {
		var ce *CheckError
		if ok := errorsAs(e, &ce); ok && ce.Rule == rule {
			return
		}
	}
	t.Fatalf("Check = %v, want violation of rule %q", errs, rule)
}

// errorsAs is a tiny local stand-in to avoid importing errors for one
// type assertion.
func errorsAs(err error, target **CheckError) bool {
	ce, ok := err.(*CheckError)
	if ok {
		*target = ce
	}
	return ok
}

func TestSelectedBISTAndMemoryUse(t *testing.T) {
	spec := buildTinySpec(t)
	x := bindTiny(spec)
	sel := x.SelectedBIST()
	if len(sel) != 1 || sel["ecu1"] == nil || sel["ecu1"].ID != "bT1" {
		t.Fatalf("SelectedBIST = %v", sel)
	}
	mem := x.MemoryUse()
	if mem["gw"] != 1<<20 {
		t.Fatalf("gateway memory = %d, want %d", mem["gw"], 1<<20)
	}
}

func TestCloneIsDeep(t *testing.T) {
	spec := buildTinySpec(t)
	x := bindTiny(spec)
	c := x.Clone()
	c.Bind("t2", "ecu1")
	c.SetRoute("c1", "t2", Route{Hops: []ResourceID{"ecu1"}})
	c.Routing[1].Route.Hops[0] = "ecu2"
	if x.Binding["t2"] != "ecu2" {
		t.Fatal("clone shares binding map")
	}
	if rt, _ := x.RouteTo("c1", "t2"); len(rt.Hops) != 3 {
		t.Fatal("clone shares routing list")
	}
	if rt, _ := x.RouteTo("cD1", "bT1"); rt.Hops[0] != "gw" {
		t.Fatal("clone shares route hops")
	}
}

func TestRouteHelpers(t *testing.T) {
	spec := buildTinySpec(t)
	rt := Route{Hops: []ResourceID{"ecu1", "bus1", "gw"}}
	if !rt.Contains("bus1") || rt.Contains("ecu2") {
		t.Fatal("Contains wrong")
	}
	buses := rt.Buses(spec.Arch)
	if len(buses) != 1 || buses[0] != "bus1" {
		t.Fatalf("Buses = %v", buses)
	}
	if rt.String() != "ecu1->bus1->gw" {
		t.Fatalf("String = %q", rt.String())
	}
}

func TestTaskAndResourceKindStrings(t *testing.T) {
	kinds := map[string]string{
		KindFunctional.String(): "functional",
		KindBISTTest.String():   "bist-test",
		KindBISTData.String():   "bist-data",
		KindCollect.String():    "collect",
	}
	for got, want := range kinds {
		if got != want {
			t.Fatalf("TaskKind.String() = %q, want %q", got, want)
		}
	}
	if KindBus.String() != "bus" || KindGateway.String() != "gateway" {
		t.Fatal("ResourceKind.String wrong")
	}
	if !KindBISTTest.Diagnostic() || KindCollect.Diagnostic() {
		t.Fatal("Diagnostic classification wrong")
	}
}

func TestPairingHelpers(t *testing.T) {
	spec := buildTinySpec(t)
	bT := spec.App.Task("bT1")
	bD := spec.App.Task("bD1")
	if got := spec.DataTaskFor(bT); got == nil || got.ID != "bD1" {
		t.Fatalf("DataTaskFor = %v", got)
	}
	if got := spec.TestTaskFor(bD); got == nil || got.ID != "bT1" {
		t.Fatalf("TestTaskFor = %v", got)
	}
	if spec.DataTaskFor(bD) != nil || spec.TestTaskFor(bT) != nil {
		t.Fatal("pairing helpers accept wrong kinds")
	}
	tasks := spec.BISTTasksForECU("ecu1")
	if len(tasks) != 1 || tasks[0].ID != "bT1" {
		t.Fatalf("BISTTasksForECU = %v", tasks)
	}
}

// TestPairingLowestMessageID pins the pairing helpers on adjacency
// inserted out of message-ID order: the pair is decided by the lowest
// message ID that qualifies, as when the helpers scanned a sorted copy,
// and a lookup allocates nothing.
func TestPairingLowestMessageID(t *testing.T) {
	app := NewApplicationGraph()
	for _, task := range []*Task{
		{ID: "f", Kind: KindFunctional},
		{ID: "bTa", Kind: KindBISTTest, TestedECU: "ecu1"},
		{ID: "bTb", Kind: KindBISTTest, TestedECU: "ecu1"},
		{ID: "bDa", Kind: KindBISTData, TestedECU: "ecu1"},
		{ID: "bDb", Kind: KindBISTData, TestedECU: "ecu1"},
	} {
		if err := app.AddTask(task); err != nil {
			t.Fatal(err)
		}
	}
	for _, m := range []*Message{
		{ID: "c9", Src: "bDb", Dst: []TaskID{"bTa"}},
		{ID: "c5", Src: "bDa", Dst: []TaskID{"bTb"}},
		{ID: "c2", Src: "bDa", Dst: []TaskID{"f", "bTa"}},
		{ID: "c1", Src: "f", Dst: []TaskID{"bTa", "bDb"}},
		{ID: "c7", Src: "bDb", Dst: []TaskID{"bTb", "bTa"}},
		{ID: "c3", Src: "bDb", Dst: []TaskID{"f"}},
	} {
		if err := app.AddMessage(m); err != nil {
			t.Fatal(err)
		}
	}
	spec := NewSpecification(app, NewArchitectureGraph())
	task := app.Task
	for _, tc := range []struct {
		name string
		get  func() *Task
		want TaskID
	}{
		{"DataTaskFor(bTa): c2 beats c9, c1 has no data sender", func() *Task { return spec.DataTaskFor(task("bTa")) }, "bDa"},
		{"DataTaskFor(bTb): c5 beats c7", func() *Task { return spec.DataTaskFor(task("bTb")) }, "bDa"},
		{"TestTaskFor(bDa): first test receiver of c2", func() *Task { return spec.TestTaskFor(task("bDa")) }, "bTa"},
		{"TestTaskFor(bDb): c7 beats c9, c3 has no test receiver", func() *Task { return spec.TestTaskFor(task("bDb")) }, "bTb"},
	} {
		if got := tc.get(); got == nil || got.ID != tc.want {
			t.Errorf("%s: got %v, want %s", tc.name, got, tc.want)
		}
		if n := testing.AllocsPerRun(100, func() { tc.get() }); n != 0 {
			t.Errorf("%s: %.0f allocs per lookup, want 0", tc.name, n)
		}
	}
}

// TestJSONRoundTrip serializes the tiny spec and parses it back: the
// result must validate and preserve every entity.
func TestJSONRoundTrip(t *testing.T) {
	spec := buildTinySpec(t)
	var buf strings.Builder
	if err := spec.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatalf("%v\n%s", err, buf.String())
	}
	if back.Gateway != spec.Gateway {
		t.Fatalf("gateway %q vs %q", back.Gateway, spec.Gateway)
	}
	if back.App.NumTasks() != spec.App.NumTasks() || back.App.NumMessages() != spec.App.NumMessages() {
		t.Fatal("task/message counts changed")
	}
	if back.Arch.NumResources() != spec.Arch.NumResources() {
		t.Fatal("resource count changed")
	}
	if len(back.Mappings()) != len(spec.Mappings()) {
		t.Fatal("mapping count changed")
	}
	// Spot-check attributes survived.
	bt := back.App.Task("bT1")
	if bt == nil || bt.Coverage != 0.99 || bt.TestedECU != "ecu1" || bt.Kind != KindBISTTest {
		t.Fatalf("bT1 = %+v", bt)
	}
	if r := back.Arch.Resource("bus1"); r == nil || r.BitRate != 500_000 || r.Kind != KindBus {
		t.Fatalf("bus1 = %+v", r)
	}
	if !back.Arch.Adjacent("ecu1", "bus1") {
		t.Fatal("link lost")
	}
}

func TestReadJSONRejectsGarbage(t *testing.T) {
	bad := []string{
		"{",
		`{"unknownField": 1}`,
		`{"gateway":"gw","resources":[{"id":"r","kind":"alien"}]}`,
		`{"gateway":"gw","resources":[{"id":"gw","kind":"gateway"}],"tasks":[{"id":"t","kind":"weird"}]}`,
	}
	for i, src := range bad {
		if _, err := ReadJSON(strings.NewReader(src)); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

// TestCheckRouteEntries covers the route entries a flat routing list
// can hold but a decoder never writes: each must be flagged.
func TestCheckRouteEntries(t *testing.T) {
	hops := []ResourceID{"ecu1", "bus1", "ecu2"}
	for _, tc := range []struct {
		name, want string
		setup      func(x *Implementation)
	}{
		{"inactive message", "inactive message \"cR1\"", func(x *Implementation) {
			// bT1 no longer sends cR1; bD1 keeps its own route.
			delete(x.Binding, "bT1")
		}},
		{"unknown message", "inactive message \"c9\"", func(x *Implementation) {
			x.SetRoute("c9", "t2", Route{Hops: hops})
		}},
		{"not a receiver", "not a receiver", func(x *Implementation) {
			x.SetRoute("c1", "bR", Route{Hops: []ResourceID{"ecu1", "bus1", "gw"}})
		}},
		{"unbound receiver", "unbound receiver \"t3\"", func(x *Implementation) {
			x.SetRoute("c1", "t3", Route{Hops: hops})
			x.Spec.App.Message("c1").Dst = []TaskID{"t2", "t3"}
		}},
		{"repeated pair", "two routes", func(x *Implementation) {
			x.Routing = append(x.Routing, RouteEntry{Msg: "c1", Dst: "t2", Route: Route{Hops: hops}})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := buildTinySpec(t)
			if err := spec.App.AddTask(&Task{ID: "t3", Kind: KindFunctional}); err != nil {
				t.Fatal(err)
			}
			x := bindTiny(spec)
			tc.setup(x)
			errs := x.Check()
			for _, e := range errs {
				if ce, ok := e.(*CheckError); ok && ce.Rule == "route-entry" && strings.Contains(ce.Msg, tc.want) {
					return
				}
			}
			t.Fatalf("Check = %v, want a route-entry violation mentioning %s", errs, tc.want)
		})
	}
	if errs := bindTiny(buildTinySpec(t)).Check(); len(errs) != 0 {
		t.Fatalf("untouched implementation: %v", errs)
	}
}

// TestRoutingJSON pins the routing's encoding to that of the nested
// message → destination → route map it replaced: keys sorted whatever
// the entry order, and an empty object without routes.
func TestRoutingJSON(t *testing.T) {
	x := bindTiny(buildTinySpec(t))
	x.SetRoute("c1", "t0", Route{Hops: []ResourceID{"ecu1"}})
	slices.Reverse(x.Routing)
	nested := func(w Routing) map[MessageID]map[TaskID]Route {
		out := make(map[MessageID]map[TaskID]Route)
		for _, e := range w {
			if out[e.Msg] == nil {
				out[e.Msg] = make(map[TaskID]Route)
			}
			out[e.Msg][e.Dst] = e.Route
		}
		return out
	}
	for _, w := range []Routing{x.Routing, nil, {}, {{Msg: "a<b", Dst: "d&e"}}} {
		want, err := json.Marshal(nested(w))
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(w)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("routing %v encodes %s, want %s", w, got, want)
		}
	}
	// A repeated pair encodes the entry RouteTo returns.
	x.Routing = append(x.Routing, RouteEntry{Msg: "c1", Dst: "t2", Route: Route{Hops: []ResourceID{"gw"}}})
	got, _ := json.Marshal(x.Routing)
	rt, _ := x.RouteTo("c1", "t2")
	if want, _ := json.Marshal(rt); !strings.Contains(string(got), `"t2":`+string(want)+"}") {
		t.Errorf("repeated pair encodes %s, want the route %s", got, want)
	}
}
