package objective_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/casestudy"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/objective"
)

// robustOn is the error model the oracle comparison runs the
// robustness objective under.
var robustOn = objective.RobustConfig{ErrorRate: 1e-5}

// checkOracle requires Evaluate and EvaluateRobust to score x with the
// same bits as the map-based oracle.
func checkOracle(t *testing.T, what string, x *model.Implementation) {
	t.Helper()
	v := refView(x)
	for _, c := range []struct {
		got, want objective.Vector
	}{
		{objective.Evaluate(x), refEvaluate(v)},
		{objective.EvaluateRobust(x, robustOn), refEvaluateRobust(v, robustOn)},
	} {
		if !sameBits(c.got, c.want) {
			t.Fatalf("%s: %+v, map oracle %+v", what, c.got, c.want)
		}
	}
}

func sameBits(a, b objective.Vector) bool {
	fa := []float64{a.CostTotal, a.TestQuality, a.ShutOffMS, a.RobustMS, a.RobustMissProb}
	fb := []float64{b.CostTotal, b.TestQuality, b.ShutOffMS, b.RobustMS, b.RobustMissProb}
	for i := range fa {
		if math.Float64bits(fa[i]) != math.Float64bits(fb[i]) {
			return false
		}
	}
	return a.RobustOn == b.RobustOn
}

func randomGenotype(rng *rand.Rand, n int) []float64 {
	g := make([]float64, n)
	for i := range g {
		g[i] = rng.Float64()
	}
	return g
}

// TestEvaluateMatchesMapOracleGreedy scores 10,200 greedy decodes of
// the full case study, 3,400 under each storage choice (the genes, all
// local, all at the gateway), against the map oracle.
func TestEvaluateMatchesMapOracleGreedy(t *testing.T) {
	spec, err := casestudy.Build(casestudy.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(21))
	for _, storage := range []int{0, 1, -1} {
		dec, err := core.NewGreedyDecoder(spec)
		if err != nil {
			t.Fatal(err)
		}
		dec.StorageChoice = storage
		for i := 0; i < 3400; i++ {
			g := randomGenotype(rng, dec.GenotypeLen())
			if i%4 == 0 {
				// Genes in the upper half: BIST on most ECUs, data at
				// the gateway unless the storage choice overrides it.
				for k := range g {
					g[k] = 0.5 + g[k]/2
				}
			}
			x, err := dec.Decode(g)
			if err != nil {
				t.Fatal(err)
			}
			checkOracle(t, "greedy decode", x)
		}
	}
}

// TestEvaluateMatchesMapOracleSAT scores SAT decodes of the 4-profile
// case study against the map oracle.
func TestEvaluateMatchesMapOracleSAT(t *testing.T) {
	if testing.Short() {
		t.Skip("large PB encoding")
	}
	spec, err := casestudy.Build(casestudy.Options{ProfilesPerECU: 4})
	if err != nil {
		t.Fatal(err)
	}
	dec, err := core.NewSATDecoder(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(22))
	for i := 0; i < 200; i++ {
		x, err := dec.Decode(randomGenotype(rng, dec.GenotypeLen()))
		if err != nil {
			t.Fatal(err)
		}
		checkOracle(t, "SAT decode", x)
	}
}

// TestEvaluateMatchesMapOracleHandBuilt scores partial implementations
// built with Bind and SetRoute — unbound mandatory tasks, several BIST
// test tasks on one ECU, data tasks without their test task, resources
// allocated only by a route — against the map oracle.
func TestEvaluateMatchesMapOracleHandBuilt(t *testing.T) {
	spec, err := casestudy.Build(casestudy.Options{ProfilesPerECU: 4})
	if err != nil {
		t.Fatal(err)
	}
	maps := spec.Mappings()
	res := spec.Arch.Resources()
	rng := rand.New(rand.NewSource(23))
	checkOracle(t, "empty implementation", model.NewImplementation(spec))
	for i := 0; i < 2000; i++ {
		x := model.NewImplementation(spec)
		for n := rng.Intn(len(maps)); n > 0; n-- {
			m := maps[rng.Intn(len(maps))]
			x.Bind(m.Task, m.Resource)
		}
		for n := rng.Intn(4); n > 0; n-- {
			hops := []model.ResourceID{res[rng.Intn(len(res))].ID, res[rng.Intn(len(res))].ID}
			x.SetRoute("c", "t", model.Route{Hops: hops})
		}
		if i%3 == 0 && len(x.Binding.Mappings()) > 0 {
			bound := x.Binding.Mappings()
			x.Unbind(bound[rng.Intn(len(bound))].Task)
		}
		checkOracle(t, "hand-built implementation", x)
	}
}

// profileSlotSpec is a hand-built specification whose BIST profile
// numbers are not contiguous: four ECUs on one bus with a gateway, each
// offering tests of some of the profiles 2, 7 and 40, so up to three
// ECUs can store one profile at the gateway. The task IDs name profile
// 40 "a", 2 "b" and 7 "c", so the profiles first appear in ID order as
// 40, 7, 2, and every data task's size differs, so a profile's gateway
// price depends on which of its data tasks sets it.
func profileSlotSpec(t *testing.T) *model.Specification {
	t.Helper()
	app := model.NewApplicationGraph()
	arch := model.NewArchitectureGraph()
	var maps []model.Mapping
	add := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	add(arch.AddResource(&model.Resource{ID: "bus", Kind: model.KindBus, Cost: 1, BitRate: 500_000}))
	add(arch.AddResource(&model.Resource{ID: "gw", Kind: model.KindGateway, Cost: 20, MemCostPerKB: 0.0031}))
	add(arch.Connect("gw", "bus"))
	add(app.AddTask(&model.Task{ID: "bR", Kind: model.KindCollect}))
	maps = append(maps, model.Mapping{Task: "bR", Resource: "gw"})
	profiles := [][]int{{7, 40}, {2, 7}, {2, 7, 40}, {40}}
	name := map[int]string{40: "a", 2: "b", 7: "c"}
	for i, ps := range profiles {
		ecu := model.ResourceID(fmt.Sprintf("ecu%d", i+1))
		add(arch.AddResource(&model.Resource{ID: ecu, Kind: model.KindECU, Cost: 10 + float64(i),
			BISTCost: 1.5, BISTCapable: true, MemCostPerKB: 0.01 * float64(i+1)}))
		add(arch.Connect(ecu, "bus"))
		f := model.TaskID(fmt.Sprintf("f%d", i+1))
		add(app.AddTask(&model.Task{ID: f, Kind: model.KindFunctional, MemBytes: 4096}))
		maps = append(maps, model.Mapping{Task: f, Resource: ecu})
		add(app.AddMessage(&model.Message{ID: model.MessageID("c" + f), Src: f, Dst: []model.TaskID{"bR"},
			SizeBytes: int64(8 * (i + 1)), PeriodMS: 10}))
		for _, p := range ps {
			bT := model.TaskID(fmt.Sprintf("bT%d%s", i+1, name[p]))
			bD := model.TaskID(fmt.Sprintf("bD%d%s", i+1, name[p]))
			add(app.AddTask(&model.Task{ID: bT, Kind: model.KindBISTTest, TestedECU: ecu,
				Coverage: 0.5 + float64(p)/100, WCETms: float64(p), Profile: p}))
			add(app.AddTask(&model.Task{ID: bD, Kind: model.KindBISTData, TestedECU: ecu,
				MemBytes: int64(1000*p + 37*i), Profile: p}))
			add(app.AddMessage(&model.Message{ID: model.MessageID("cD" + bD), Src: bD, Dst: []model.TaskID{bT}, SizeBytes: 8, PeriodMS: 10}))
			add(app.AddMessage(&model.Message{ID: model.MessageID("cR" + bT), Src: bT, Dst: []model.TaskID{"bR"}, SizeBytes: 8, PeriodMS: 100}))
			maps = append(maps, model.Mapping{Task: bT, Resource: ecu},
				model.Mapping{Task: bD, Resource: ecu}, model.Mapping{Task: bD, Resource: "gw"})
		}
	}
	spec := model.NewSpecification(app, arch)
	spec.Gateway = "gw"
	for _, m := range maps {
		add(spec.AddMapping(m.Task, m.Resource))
	}
	add(spec.Validate())
	return spec
}

// TestEvaluateMatchesMapOracleProfileSlots scores implementations of
// profileSlotSpec against the map oracle: the objectives price gateway
// data by the dense rank of its profile among 2, 7 and 40, and must
// agree with the oracle's profile-keyed map bit for bit, including when
// two or three ECUs store the same profile at the gateway.
func TestEvaluateMatchesMapOracleProfileSlots(t *testing.T) {
	spec := profileSlotSpec(t)
	maps := spec.Mappings()
	rng := rand.New(rand.NewSource(28))
	shared := 0
	for i := 0; i < 3000; i++ {
		x := model.NewImplementation(spec)
		for n := rng.Intn(len(maps) + 1); n > 0; n-- {
			m := maps[rng.Intn(len(maps))]
			if i%2 == 0 && spec.App.Task(m.Task).Kind == model.KindBISTData {
				m.Resource = "gw" // crowd the gateway with data tasks
			}
			x.Bind(m.Task, m.Resource)
		}
		perProfile := map[int]int{}
		for _, m := range x.Binding.Mappings() {
			if task := spec.App.Task(m.Task); task.Kind == model.KindBISTData && m.Resource == "gw" {
				if perProfile[task.Profile]++; perProfile[task.Profile] == 2 {
					shared++
				}
			}
		}
		checkOracle(t, "profile-slot implementation", x)
	}
	if shared < 100 {
		t.Fatalf("only %d implementations store one profile twice at the gateway", shared)
	}

	// ecu1 and ecu2 store profile 7 at the gateway, ecu4 profile 40,
	// and ecu3 keeps its profile 2 data locally: the gateway pays for
	// profile 7 once, at the size of the last of its data tasks by ID
	// (bD2c), and adds its profiles in profile order after the local
	// data. Adding them in the order the profiles first appear in the
	// specification, 40 before 7, changes the sum's last bit.
	x := model.NewImplementation(spec)
	for _, b := range [][2]model.ResourceID{
		{"bT1c", "ecu1"}, {"bD1c", "gw"}, {"bT2c", "ecu2"}, {"bD2c", "gw"},
		{"bT3b", "ecu3"}, {"bD3b", "ecu3"}, {"bT4a", "ecu4"}, {"bD4a", "gw"},
	} {
		x.Bind(model.TaskID(b[0]), b[1])
	}
	checkOracle(t, "shared profile 7", x)
	want := float64(2000+74)/1024*0.03 + float64(7000+37)/1024*0.0031 + float64(40000+111)/1024*0.0031
	if got := objective.MonetaryCosts(x).Memory; got != want {
		t.Fatalf("memory cost %v, want %v", got, want)
	}
}
