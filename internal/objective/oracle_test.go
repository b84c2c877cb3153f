package objective_test

import (
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
