package encode

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/casestudy"
	"repro/internal/model"
	"repro/internal/pbsat"
)

// buildSpec creates a small but complete diagnostic specification: two
// ECUs and a gateway on one bus, a functional chain t1→t2, two BIST
// profiles for ecu1 and one for ecu2, with data tasks mappable locally
// or to the gateway.
func buildSpec(t *testing.T) *model.Specification {
	t.Helper()
	app := model.NewApplicationGraph()
	tasks := []*model.Task{
		{ID: "t1", Kind: model.KindFunctional},
		{ID: "t2", Kind: model.KindFunctional},
		{ID: "bR", Kind: model.KindCollect},
		{ID: "bT1a", Kind: model.KindBISTTest, TestedECU: "ecu1", Coverage: 0.99, WCETms: 5, Profile: 1},
		{ID: "bT1b", Kind: model.KindBISTTest, TestedECU: "ecu1", Coverage: 0.95, WCETms: 2, Profile: 2},
		{ID: "bD1a", Kind: model.KindBISTData, TestedECU: "ecu1", MemBytes: 1 << 20},
		{ID: "bD1b", Kind: model.KindBISTData, TestedECU: "ecu1", MemBytes: 1 << 18},
		{ID: "bT2", Kind: model.KindBISTTest, TestedECU: "ecu2", Coverage: 0.98, WCETms: 3, Profile: 1},
		{ID: "bD2", Kind: model.KindBISTData, TestedECU: "ecu2", MemBytes: 1 << 19},
	}
	for _, task := range tasks {
		if err := app.AddTask(task); err != nil {
			t.Fatal(err)
		}
	}
	msgs := []*model.Message{
		{ID: "c1", Src: "t1", Dst: []model.TaskID{"t2"}, SizeBytes: 8, PeriodMS: 10},
		{ID: "cD1a", Src: "bD1a", Dst: []model.TaskID{"bT1a"}, SizeBytes: 8, PeriodMS: 10},
		{ID: "cD1b", Src: "bD1b", Dst: []model.TaskID{"bT1b"}, SizeBytes: 8, PeriodMS: 10},
		{ID: "cD2", Src: "bD2", Dst: []model.TaskID{"bT2"}, SizeBytes: 8, PeriodMS: 10},
		{ID: "cR1a", Src: "bT1a", Dst: []model.TaskID{"bR"}, SizeBytes: 8, PeriodMS: 100},
		{ID: "cR1b", Src: "bT1b", Dst: []model.TaskID{"bR"}, SizeBytes: 8, PeriodMS: 100},
		{ID: "cR2", Src: "bT2", Dst: []model.TaskID{"bR"}, SizeBytes: 8, PeriodMS: 100},
	}
	for _, m := range msgs {
		if err := app.AddMessage(m); err != nil {
			t.Fatal(err)
		}
	}
	arch := model.NewArchitectureGraph()
	for _, r := range []*model.Resource{
		{ID: "ecu1", Kind: model.KindECU, Cost: 10, BISTCapable: true, BISTCost: 1, MemCostPerKB: 0.01},
		{ID: "ecu2", Kind: model.KindECU, Cost: 11, BISTCapable: true, BISTCost: 1, MemCostPerKB: 0.01},
		{ID: "bus1", Kind: model.KindBus, Cost: 1, BitRate: 500_000},
		{ID: "gw", Kind: model.KindGateway, Cost: 20, MemCostPerKB: 0.002},
	} {
		if err := arch.AddResource(r); err != nil {
			t.Fatal(err)
		}
	}
	for _, pair := range [][2]model.ResourceID{{"ecu1", "bus1"}, {"ecu2", "bus1"}, {"gw", "bus1"}} {
		if err := arch.Connect(pair[0], pair[1]); err != nil {
			t.Fatal(err)
		}
	}
	spec := model.NewSpecification(app, arch)
	spec.Gateway = "gw"
	maps := []model.Mapping{
		{Task: "t1", Resource: "ecu1"}, {Task: "t1", Resource: "ecu2"},
		{Task: "t2", Resource: "ecu2"}, {Task: "t2", Resource: "ecu1"},
		{Task: "bR", Resource: "gw"},
		{Task: "bT1a", Resource: "ecu1"}, {Task: "bT1b", Resource: "ecu1"},
		{Task: "bD1a", Resource: "ecu1"}, {Task: "bD1a", Resource: "gw"},
		{Task: "bD1b", Resource: "ecu1"}, {Task: "bD1b", Resource: "gw"},
		{Task: "bT2", Resource: "ecu2"},
		{Task: "bD2", Resource: "ecu2"}, {Task: "bD2", Resource: "gw"},
	}
	for _, m := range maps {
		if err := spec.AddMapping(m.Task, m.Resource); err != nil {
			t.Fatal(err)
		}
	}
	return spec
}

func TestBuildStats(t *testing.T) {
	e, err := Build(buildSpec(t), 0)
	if err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.MappingVars != 14 {
		t.Fatalf("mapping vars = %d, want 14", st.MappingVars)
	}
	if st.RouteVars == 0 || st.StepVars == 0 || st.Constraints == 0 {
		t.Fatalf("stats = %+v", st)
	}
	// Longest shortest path in this topology visits 3 resources
	// (ecu → bus → gw); TMax = diameter+1 leaves one hop of slack.
	if st.TMax != 4 {
		t.Fatalf("TMax = %d, want 4", st.TMax)
	}
	if e.GenotypeLen() != 14 {
		t.Fatalf("genotype len = %d", e.GenotypeLen())
	}
}

// TestBuildRejectsMulticast pins the chosen multi-destination policy:
// the routing-chain encoding is unicast, so Build rejects multicast
// messages loudly at encoding time (naming the message) instead of
// Decode silently routing to the first destination only.
func TestBuildRejectsMulticast(t *testing.T) {
	spec := buildSpec(t)
	if err := spec.App.AddMessage(&model.Message{ID: "mc", Src: "t1", Dst: []model.TaskID{"t2", "bR"}, SizeBytes: 1, PeriodMS: 10}); err != nil {
		t.Fatal(err)
	}
	_, err := Build(spec, 0)
	if err == nil {
		t.Fatal("multicast accepted")
	}
	if !strings.Contains(err.Error(), "mc") || !strings.Contains(err.Error(), "unicast") {
		t.Fatalf("error %q does not name the multicast message and the unicast restriction", err)
	}
}

// TestDecodeRoutesEveryDestination pins the Decode side of the policy:
// the implementation carries one route per bound destination of every
// active message — none is silently skipped — and each route runs from
// the sender's resource to that destination's resource.
func TestDecodeRoutesEveryDestination(t *testing.T) {
	e, err := Build(buildSpec(t), 0)
	if err != nil {
		t.Fatal(err)
	}
	g := make([]float64, e.GenotypeLen())
	for i := range g {
		g[i] = 0.5
	}
	x, _, err := e.SolveWithGenotype(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, msg := range e.Spec.App.Messages() {
		if !x.Bound(msg.Src) {
			continue
		}
		for _, dst := range msg.Dst {
			if !x.Bound(dst) {
				continue
			}
			route, ok := x.RouteTo(msg.ID, dst)
			if !ok {
				t.Fatalf("message %q has no route towards %q", msg.ID, dst)
			}
			if len(route.Hops) == 0 || route.Hops[0] != x.Binding[msg.Src] || route.Hops[len(route.Hops)-1] != x.Binding[dst] {
				t.Fatalf("message %q route %v does not run %q→%q", msg.ID, route, x.Binding[msg.Src], x.Binding[dst])
			}
		}
	}
}

// TestDecoderStateReuseMatchesFresh pins the per-worker reuse contract:
// one DecoderState decoding a stream of genotypes must produce exactly
// the implementations a fresh pipeline produces — state reuse is a
// throughput optimization, never a behavioral one.
func TestDecoderStateReuseMatchesFresh(t *testing.T) {
	e, err := Build(buildSpec(t), 0)
	if err != nil {
		t.Fatal(err)
	}
	st := e.NewDecoderState()
	rng := rand.New(rand.NewSource(42))
	for round := 0; round < 50; round++ {
		g := make([]float64, e.GenotypeLen())
		for i := range g {
			g[i] = rng.Float64()
		}
		got, gotRes, err := st.Decode(g, 0)
		if err != nil {
			t.Fatalf("round %d: reused decode: %v", round, err)
		}
		want, wantRes, err := e.SolveWithGenotype(g, 0)
		if err != nil {
			t.Fatalf("round %d: fresh decode: %v", round, err)
		}
		if gotRes.Decisions != wantRes.Decisions || gotRes.Conflicts != wantRes.Conflicts {
			t.Fatalf("round %d: search stats (d=%d c=%d) vs fresh (d=%d c=%d)",
				round, gotRes.Decisions, gotRes.Conflicts, wantRes.Decisions, wantRes.Conflicts)
		}
		if !reflect.DeepEqual(got.Binding, want.Binding) {
			t.Fatalf("round %d: bindings differ:\n%v\n%v", round, got.Binding, want.Binding)
		}
		if !reflect.DeepEqual(got.Allocation, want.Allocation) {
			t.Fatalf("round %d: allocations differ", round)
		}
		if !reflect.DeepEqual(got.Routing, want.Routing) {
			t.Fatalf("round %d: routings differ", round)
		}
	}
}

func TestSolveNeutralGenotypeIsFeasible(t *testing.T) {
	e, err := Build(buildSpec(t), 0)
	if err != nil {
		t.Fatal(err)
	}
	g := make([]float64, e.GenotypeLen())
	for i := range g {
		g[i] = 0.5
	}
	x, res, err := e.SolveWithGenotype(g, 0)
	if err != nil {
		t.Fatalf("solve: %v (res=%+v)", err, res)
	}
	// Cross-validate with the independent structural checker.
	if errs := x.Check(); len(errs) != 0 {
		t.Fatalf("decoded implementation infeasible: %v", errs)
	}
}

func TestGenotypeSteersBISTSelection(t *testing.T) {
	e, err := Build(buildSpec(t), 0)
	if err != nil {
		t.Fatal(err)
	}
	order := e.MappingOrder()
	geneOf := func(task model.TaskID, res model.ResourceID) int {
		for i, m := range order {
			if m.Task == task && m.Resource == res {
				return i
			}
		}
		t.Fatalf("mapping %s->%s not found", task, res)
		return -1
	}

	// Force BIST profile b on ecu1 with gateway storage, no BIST on ecu2.
	g := make([]float64, e.GenotypeLen())
	for i := range g {
		g[i] = 0.1 // prefer off / low priority
	}
	g[geneOf("bT1b", "ecu1")] = 1.0
	g[geneOf("bD1b", "gw")] = 0.99
	g[geneOf("t1", "ecu1")] = 0.95
	g[geneOf("t2", "ecu2")] = 0.94

	x, _, err := e.SolveWithGenotype(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if errs := x.Check(); len(errs) != 0 {
		t.Fatalf("infeasible: %v", errs)
	}
	sel := x.SelectedBIST()
	if sel["ecu1"] == nil || sel["ecu1"].ID != "bT1b" {
		t.Fatalf("selected BIST = %v, want bT1b on ecu1", sel)
	}
	if sel["ecu2"] != nil {
		t.Fatalf("ecu2 unexpectedly has BIST: %v", sel["ecu2"])
	}
	if got := x.Binding["bD1b"]; got != "gw" {
		t.Fatalf("bD1b bound to %q, want gw", got)
	}
	// The test-pattern message must be routed gw -> bus1 -> ecu1.
	rt, _ := x.RouteTo("cD1b", "bT1b")
	if rt.String() != "gw->bus1->ecu1" {
		t.Fatalf("route = %v", rt)
	}
}

// TestRandomGenotypesAlwaysFeasible is the SAT-decoding guarantee: any
// genotype decodes into an implementation satisfying all constraints of
// the independent model checker.
func TestRandomGenotypesAlwaysFeasible(t *testing.T) {
	e, err := Build(buildSpec(t), 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	for round := 0; round < 50; round++ {
		g := make([]float64, e.GenotypeLen())
		for i := range g {
			g[i] = rng.Float64()
		}
		x, _, err := e.SolveWithGenotype(g, 0)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if errs := x.Check(); len(errs) != 0 {
			t.Fatalf("round %d: decoded infeasible: %v", round, errs)
		}
	}
}

func TestEq3aAtMostOneProfile(t *testing.T) {
	e, err := Build(buildSpec(t), 0)
	if err != nil {
		t.Fatal(err)
	}
	order := e.MappingOrder()
	g := make([]float64, e.GenotypeLen())
	// Try to force BOTH ecu1 profiles on.
	for i, m := range order {
		switch m.Task {
		case "bT1a", "bT1b":
			g[i] = 1.0
		default:
			g[i] = 0.5
		}
	}
	x, _, err := e.SolveWithGenotype(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, bt := range []model.TaskID{"bT1a", "bT1b"} {
		if x.Bound(bt) {
			n++
		}
	}
	if n > 1 {
		t.Fatalf("both profiles selected despite Eq. 3a")
	}
}

func TestBranchingLengthValidation(t *testing.T) {
	e, err := Build(buildSpec(t), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Branching([]float64{0.5}); err == nil {
		t.Fatal("wrong genotype length accepted")
	}
}

func TestVerifyModelSatisfiesEncoding(t *testing.T) {
	// The solver's model must satisfy every encoded constraint per the
	// problem's own Verify — a sanity loop between solver and encoder.
	e, err := Build(buildSpec(t), 0)
	if err != nil {
		t.Fatal(err)
	}
	s := pbsat.NewSolver(e.Problem)
	res := s.Solve(nil)
	if !res.SAT {
		t.Fatal("encoding unsatisfiable")
	}
	if bad := e.Problem.Verify(res.Model); len(bad) != 0 {
		t.Fatalf("model violates %v", bad)
	}
}

// sortedStepKeys iterates the step variables of a message
// deterministically, by (τ, resource).
func (e *Encoding) sortedStepKeys(msg model.MessageID) []stepKey {
	var keys []stepKey
	for k := range e.stepVar {
		if k.msg == msg {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].tau != keys[j].tau {
			return keys[i].tau < keys[j].tau
		}
		return keys[i].res < keys[j].res
	})
	return keys
}

func TestSortedStepKeysDeterministic(t *testing.T) {
	e, err := Build(buildSpec(t), 0)
	if err != nil {
		t.Fatal(err)
	}
	a := e.sortedStepKeys("c1")
	b := e.sortedStepKeys("c1")
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("step keys: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("non-deterministic iteration")
		}
	}
}

// TestMessageStepIndex pins the dense per-message step index: entry i
// holds the step variables of the message at position i of
// Spec.App.Messages(), in (τ, resource) order.
func TestMessageStepIndex(t *testing.T) {
	e, err := Build(buildSpec(t), 0)
	if err != nil {
		t.Fatal(err)
	}
	msgs := e.Spec.App.Messages()
	if len(e.msgSteps) != len(msgs) {
		t.Fatalf("%d step lists for %d messages", len(e.msgSteps), len(msgs))
	}
	for i, msg := range msgs {
		keys := e.sortedStepKeys(msg.ID)
		if len(e.msgSteps[i]) != len(keys) {
			t.Fatalf("message %q: %d indexed steps, want %d", msg.ID, len(e.msgSteps[i]), len(keys))
		}
		for j, k := range keys {
			se := e.msgSteps[i][j]
			if se.res != k.res || se.tau != k.tau || se.v != e.stepVar[k] {
				t.Fatalf("message %q step %d: %+v, want %v as x%d", msg.ID, j, se, k, e.stepVar[k])
			}
		}
	}
}

// TestDecodeRejectsMessageAddedAfterBuild: the step index is by
// message position, so a specification that gained a message after
// Build no longer matches its encoding; Decode says so instead of
// reading another message's steps.
func TestDecodeRejectsMessageAddedAfterBuild(t *testing.T) {
	spec := buildSpec(t)
	e, err := Build(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := spec.App.AddMessage(&model.Message{ID: "a0", Src: "t1", Dst: []model.TaskID{"t2"}, SizeBytes: 1, PeriodMS: 10}); err != nil {
		t.Fatal(err)
	}
	g := make([]float64, e.GenotypeLen())
	for i := range g {
		g[i] = 0.5
	}
	if _, _, err := e.SolveWithGenotype(g, 0); err == nil || !strings.Contains(err.Error(), "messages") {
		t.Fatalf("decode after adding a message: err = %v, want a message-count mismatch", err)
	}
}

// TestMemoryCapacityEncoded: a gateway too small for the big profile's
// pattern data forces the solver to either store locally or pick the
// smaller profile — never to overflow the capacity.
func TestMemoryCapacityEncoded(t *testing.T) {
	spec := buildSpec(t)
	// Cap the gateway below bD1a's 1 MiB but above bD1b's 256 KiB.
	spec.Arch.Resource("gw").MemCapBytes = 512 * 1024
	e, err := Build(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	order := e.MappingOrder()
	g := make([]float64, e.GenotypeLen())
	for i, m := range order {
		switch {
		case m.Task == "bT1a":
			g[i] = 1.0 // want the big profile
		case m.Task == "bD1a" && m.Resource == "gw":
			g[i] = 0.99 // want it at the gateway — must be overridden
		default:
			g[i] = 0.5
		}
	}
	x, _, err := e.SolveWithGenotype(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if errs := x.Check(); len(errs) != 0 {
		t.Fatalf("infeasible: %v", errs)
	}
	// Wherever the solver landed, the gateway holds at most 512 KiB.
	var gwBytes int64
	for tid, r := range x.Binding {
		if r != "gw" {
			continue
		}
		if task := spec.App.Task(tid); task != nil {
			gwBytes += task.MemBytes
		}
	}
	if gwBytes > 512*1024 {
		t.Fatalf("gateway overflows: %d bytes", gwBytes)
	}
}

// TestAblationA3Without2h: dropping Eq. (2h) lets the solver bind a
// BIST task to an ECU hosting no mandatory task — exactly the defect
// the constraint prevents (verified via the independent checker, which
// always enforces 2h).
func TestAblationA3Without2h(t *testing.T) {
	spec := buildSpec(t)
	e, err := Build(spec, 0, Without2h())
	if err != nil {
		t.Fatal(err)
	}
	order := e.MappingOrder()
	g := make([]float64, e.GenotypeLen())
	for i, m := range order {
		switch {
		case m.Task == "t1" && m.Resource == "ecu2":
			g[i] = 0.99 // push both functional tasks onto ecu2
		case m.Task == "t2" && m.Resource == "ecu2":
			g[i] = 0.98
		case m.Task == "bT1a": // BIST on the now-idle ecu1
			g[i] = 1.0
		case m.Task == "bD1a" && m.Resource == "ecu1":
			g[i] = 0.97
		default:
			g[i] = 0.1
		}
	}
	x, _, err := e.SolveWithGenotype(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !x.Bound("bT1a") || x.Binding["t1"] != "ecu2" {
		t.Skip("solver found a different model; ablation scenario not reached")
	}
	// The independent checker must flag the 2h violation.
	violated := false
	for _, cerr := range x.Check() {
		if ce, ok := cerr.(*model.CheckError); ok && ce.Rule == "2h" {
			violated = true
		}
	}
	if !violated {
		t.Fatal("Without2h produced no 2h violation — ablation ineffective")
	}
	// With the constraint on, the same genotype yields a feasible model.
	e2, err := Build(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	x2, _, err := e2.SolveWithGenotype(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if errs := x2.Check(); len(errs) != 0 {
		t.Fatalf("with 2h: %v", errs)
	}
}

// TestBuildDeterministic pins that encoding one specification twice
// emits the identical constraint sequence. Constraint order decides the
// propagation queue order, so a map-ordered Build made the solver's
// Propagated counts differ from run to run.
func TestBuildDeterministic(t *testing.T) {
	spec, err := casestudy.Build(casestudy.Options{ProfilesPerECU: 4})
	if err != nil {
		t.Fatal(err)
	}
	a, err := Build(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Problem.Constraints(), b.Problem.Constraints()) {
		t.Fatal("two Builds of one specification emit different constraints")
	}
}

// TestPaperScaleDecodeIdentity pins SAT-decoding on the paper's full
// case study (36 profiles per ECU, ~55k variables): 16 seeded genotypes
// decoded through one DecoderState must reproduce the recorded models,
// as a SHA-256 over the model bits, and the recorded per-decode
// decisions and conflicts, and every implementation must pass the
// independent checker. The recorded values predate the solver's root
// presolve, which must leave the search trajectory untouched.
func TestPaperScaleDecodeIdentity(t *testing.T) {
	const wantSHA = "cc813af69590383bbd06c0977cebb3b923052f2e006548a439e8fdd988c7ccc0"
	wantStats := [][2]int{ // {Decisions, Conflicts} per decode
		{344, 115}, {352, 113}, {346, 119}, {340, 107},
		{351, 111}, {353, 105}, {351, 115}, {344, 113},
		{353, 111}, {336, 113}, {349, 113}, {337, 109},
		{331, 103}, {358, 121}, {350, 123}, {358, 107},
	}
	spec, err := casestudy.Build(casestudy.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e, err := Build(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	st := e.NewDecoderState()
	rng := rand.New(rand.NewSource(36))
	h := sha256.New()
	bits := make([]byte, e.Problem.NumVars())
	for round, want := range wantStats {
		g := make([]float64, e.GenotypeLen())
		for i := range g {
			g[i] = rng.Float64()
		}
		x, res, err := st.Decode(g, 0)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if errs := x.Check(); len(errs) != 0 {
			t.Fatalf("round %d: decoded infeasible: %v", round, errs)
		}
		if got := [2]int{res.Decisions, res.Conflicts}; got != want {
			t.Errorf("round %d: {decisions, conflicts} = %v, want %v", round, got, want)
		}
		for i, v := range res.Model {
			bits[i] = 0
			if v {
				bits[i] = 1
			}
		}
		h.Write(bits)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != wantSHA {
		t.Errorf("model SHA-256 = %s, want %s", got, wantSHA)
	}
}
