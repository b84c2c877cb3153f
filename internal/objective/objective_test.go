package objective

import (
	"math"
	"testing"

	"repro/internal/model"
)

// buildSpec creates two ECUs on a bus with a gateway; ecu1 has a BIST
// pair (coverage 0.9, 1 MiB data, 10 ms runtime), and t1 on ecu1 sends
// one functional message of 8 bytes every 10 ms (0.8 B/ms bandwidth).
func buildSpec(t *testing.T) *model.Specification {
	t.Helper()
	app := model.NewApplicationGraph()
	for _, task := range []*model.Task{
		{ID: "t1", Kind: model.KindFunctional},
		{ID: "t2", Kind: model.KindFunctional},
		{ID: "bR", Kind: model.KindCollect},
		{ID: "bT1", Kind: model.KindBISTTest, TestedECU: "ecu1", Coverage: 0.9, WCETms: 10, Profile: 1},
		{ID: "bD1", Kind: model.KindBISTData, TestedECU: "ecu1", MemBytes: 1 << 20},
	} {
		if err := app.AddTask(task); err != nil {
			t.Fatal(err)
		}
	}
	for _, m := range []*model.Message{
		{ID: "c1", Src: "t1", Dst: []model.TaskID{"t2"}, SizeBytes: 8, PeriodMS: 10, Priority: 3},
		{ID: "cD1", Src: "bD1", Dst: []model.TaskID{"bT1"}, SizeBytes: 8, PeriodMS: 10},
		{ID: "cR1", Src: "bT1", Dst: []model.TaskID{"bR"}, SizeBytes: 8, PeriodMS: 100},
	} {
		if err := app.AddMessage(m); err != nil {
			t.Fatal(err)
		}
	}
	arch := model.NewArchitectureGraph()
	for _, r := range []*model.Resource{
		{ID: "ecu1", Kind: model.KindECU, Cost: 10, BISTCost: 2, BISTCapable: true, MemCostPerKB: 0.01},
		{ID: "ecu2", Kind: model.KindECU, Cost: 12},
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
	for _, m := range []model.Mapping{
		{Task: "t1", Resource: "ecu1"}, {Task: "t2", Resource: "ecu2"},
		{Task: "bR", Resource: "gw"}, {Task: "bT1", Resource: "ecu1"},
		{Task: "bD1", Resource: "ecu1"}, {Task: "bD1", Resource: "gw"},
	} {
		if err := spec.AddMapping(m.Task, m.Resource); err != nil {
			t.Fatal(err)
		}
	}
	return spec
}

func bindAll(spec *model.Specification, dataOn model.ResourceID, withBIST bool) *model.Implementation {
	x := model.NewImplementation(spec)
	x.Bind("t1", "ecu1")
	x.Bind("t2", "ecu2")
	x.Bind("bR", "gw")
	x.SetRoute("c1", "t2", model.Route{Hops: []model.ResourceID{"ecu1", "bus1", "ecu2"}})
	if withBIST {
		x.Bind("bT1", "ecu1")
		x.Bind("bD1", dataOn)
		if dataOn == "ecu1" {
			x.SetRoute("cD1", "bT1", model.Route{Hops: []model.ResourceID{"ecu1"}})
		} else {
			x.SetRoute("cD1", "bT1", model.Route{Hops: []model.ResourceID{"gw", "bus1", "ecu1"}})
		}
		x.SetRoute("cR1", "bR", model.Route{Hops: []model.ResourceID{"ecu1", "bus1", "gw"}})
	}
	return x
}

func TestMonetaryCostsLocalVsGateway(t *testing.T) {
	spec := buildSpec(t)
	local := MonetaryCosts(bindAll(spec, "ecu1", true))
	gw := MonetaryCosts(bindAll(spec, "gw", true))
	// Hardware identical (same allocation), BIST surcharge identical.
	if local.Hardware != gw.Hardware || local.BIST != gw.BIST {
		t.Fatalf("hardware/bist differ: %+v vs %+v", local, gw)
	}
	if local.BIST != 2 {
		t.Fatalf("BIST surcharge = %v, want 2", local.BIST)
	}
	// Gateway memory is 5x cheaper per KB here.
	wantLocal := float64(1<<20) / 1024 * 0.01
	wantGW := float64(1<<20) / 1024 * 0.002
	if math.Abs(local.Memory-wantLocal) > 1e-9 || math.Abs(gw.Memory-wantGW) > 1e-9 {
		t.Fatalf("memory costs: local %v (want %v), gw %v (want %v)", local.Memory, wantLocal, gw.Memory, wantGW)
	}
	if local.Total() <= gw.Total() {
		t.Fatal("local storage must cost more in this setup")
	}
}

func TestNoBISTCostsBaseline(t *testing.T) {
	spec := buildSpec(t)
	c := MonetaryCosts(bindAll(spec, "", false))
	if c.BIST != 0 || c.Memory != 0 {
		t.Fatalf("no-BIST costs: %+v", c)
	}
	if c.Hardware != 10+12+1+20 {
		t.Fatalf("hardware = %v", c.Hardware)
	}
}

func TestTestQuality(t *testing.T) {
	spec := buildSpec(t)
	// Two allocated ECUs, one with 0.9 coverage: Eq. 4 gives 0.45.
	q := TestQuality(bindAll(spec, "ecu1", true))
	if math.Abs(q-0.45) > 1e-12 {
		t.Fatalf("quality = %v, want 0.45", q)
	}
	if q := TestQuality(bindAll(spec, "", false)); q != 0 {
		t.Fatalf("no-BIST quality = %v", q)
	}
}

func TestShutOffTimeLocal(t *testing.T) {
	spec := buildSpec(t)
	// Local storage: just the session runtime.
	got := ShutOffTimeMS(bindAll(spec, "ecu1", true))
	if got != 10 {
		t.Fatalf("shut-off = %v, want 10", got)
	}
}

func TestShutOffTimeGateway(t *testing.T) {
	spec := buildSpec(t)
	got := ShutOffTimeMS(bindAll(spec, "gw", true))
	// Transfer: 1 MiB over 0.8 B/ms = 1310720 ms, plus 10 ms session.
	want := float64(1<<20)/0.8 + 10
	if math.Abs(got-want) > 1e-6 {
		t.Fatalf("shut-off = %v, want %v", got, want)
	}
}

func TestShutOffNoBISTIsZero(t *testing.T) {
	spec := buildSpec(t)
	if got := ShutOffTimeMS(bindAll(spec, "", false)); got != 0 {
		t.Fatalf("shut-off = %v", got)
	}
}

func TestShutOffInfiniteWithoutBandwidth(t *testing.T) {
	spec := buildSpec(t)
	x := bindAll(spec, "gw", true)
	// Move t1 off ecu1: no functional messages to mirror.
	x.Bind("t1", "ecu2")
	x.SetRoute("c1", "t2", model.Route{Hops: []model.ResourceID{"ecu2"}})
	if got := ShutOffTimeMS(x); !math.IsInf(got, 1) {
		t.Fatalf("shut-off = %v, want +Inf", got)
	}
}

func TestEvaluateAndMinimized(t *testing.T) {
	spec := buildSpec(t)
	v := Evaluate(bindAll(spec, "ecu1", true))
	if v.TestQuality <= 0 || v.CostTotal <= 0 || v.ShutOffMS != 10 {
		t.Fatalf("vector = %+v", v)
	}
	m := v.Minimized()
	if len(m) != 3 || m[0] != v.CostTotal || m[1] != -v.TestQuality || m[2] != v.ShutOffMS {
		t.Fatalf("minimized = %v", m)
	}
}

// TestShutOffMonotoneInDataSize: growing the stored pattern volume can
// only increase (never decrease) the gateway-storage shut-off time —
// the monotonicity Eq. (5) inherits from Eq. (1).
func TestShutOffMonotoneInDataSize(t *testing.T) {
	spec := buildSpec(t)
	prev := 0.0
	for i, bytes := range []int64{1 << 10, 1 << 15, 1 << 20, 1 << 24} {
		spec.App.Task("bD1").MemBytes = bytes
		got := ShutOffTimeMS(bindAll(spec, "gw", true))
		if got <= prev {
			t.Fatalf("step %d: shut-off %v not above %v", i, got, prev)
		}
		prev = got
	}
}

// TestQualityBoundedByBestCoverage: Eq. (4) can never exceed the best
// selected profile coverage.
func TestQualityBoundedByBestCoverage(t *testing.T) {
	spec := buildSpec(t)
	x := bindAll(spec, "ecu1", true)
	q := TestQuality(x)
	best := 0.0
	for _, bT := range x.SelectedBIST() {
		if bT.Coverage > best {
			best = bT.Coverage
		}
	}
	if q > best {
		t.Fatalf("quality %v above best coverage %v", q, best)
	}
}
