package repro

// Experiment regression tests: each test regenerates one table/figure
// of the paper (at reduced evaluation budgets) and asserts its
// qualitative claims — who wins, by roughly what factor, where the
// crossovers fall. EXPERIMENTS.md records the paper-vs-measured
// comparison these tests enforce.

import (
	"math"
	"testing"

	"repro/internal/bistgen"
	"repro/internal/can"
	"repro/internal/casestudy"
	"repro/internal/core"
	"repro/internal/diagnosis"
	"repro/internal/dtc"
	"repro/internal/gateway"
	"repro/internal/moea"
	"repro/internal/netlist"
	"repro/internal/objective"
	"repro/internal/report"
	"repro/internal/stumps"
)

// runCaseStudy performs the Fig. 5 exploration at a reduced budget.
func runCaseStudy(t *testing.T, evals int, seed int64) *core.Result {
	t.Helper()
	spec, err := casestudy.Build(casestudy.Options{})
	if err != nil {
		t.Fatal(err)
	}
	dec, err := core.NewGreedyDecoder(spec)
	if err != nil {
		t.Fatal(err)
	}
	pop := 128
	gens := evals / pop
	res, err := core.NewExplorer(spec, dec).Run(moea.Options{PopSize: pop, Generations: gens, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestExperimentFig5 regenerates the Pareto front of Fig. 5 and checks
// its structure: a substantial non-dominated set, and the paper's key
// observation that the high-quality low-cost implementations are
// exactly the ones with shut-off times above 20 s (their patterns live
// at the gateway).
func TestExperimentFig5(t *testing.T) {
	if testing.Short() {
		t.Skip("full case study exploration")
	}
	res := runCaseStudy(t, 10_000, 1)
	if len(res.Solutions) < 50 {
		t.Fatalf("Pareto set has only %d points (paper: 176)", len(res.Solutions))
	}
	fast, slow := res.SplitByShutOff(20_000)
	if len(fast) == 0 || len(slow) == 0 {
		t.Fatalf("split degenerate: %d fast, %d slow", len(fast), len(slow))
	}
	// The paper: ▲ (slow) implementations achieve high coverage with
	// only minor cost increase. Check: the cheapest solution reaching
	// ≥75 % quality is a slow (gateway-storage) one.
	cheapHigh := core.Solution{}
	found := false
	for _, s := range res.Solutions {
		if s.Objectives.TestQuality >= 0.75 {
			if !found || s.Objectives.CostTotal < cheapHigh.Objectives.CostTotal {
				cheapHigh = s
				found = true
			}
		}
	}
	if !found {
		t.Fatal("no solution reaches 75% test quality")
	}
	if cheapHigh.Objectives.ShutOffMS <= 20_000 {
		t.Fatalf("cheapest high-quality solution is fast (%.1f s) — gateway-storage economics broken",
			cheapHigh.Objectives.ShutOffMS/1000)
	}
}

// TestExperimentHeadline checks Section IV-B's headline: a feasible
// implementation with roughly 80 % test quality for less than 3.7 %
// extra cost over the no-BIST baseline.
func TestExperimentHeadline(t *testing.T) {
	if testing.Short() {
		t.Skip("full case study exploration")
	}
	res := runCaseStudy(t, 15_000, 2)
	base := res.BaselineCost()
	if math.IsInf(base, 1) || base <= 0 {
		t.Fatalf("baseline = %v", base)
	}
	sol, ok := res.BestQualityWithin(base, 0.037)
	if !ok {
		t.Fatal("no solution within 3.7% of baseline")
	}
	if sol.Objectives.TestQuality < 0.75 {
		t.Fatalf("quality within 3.7%% budget = %.1f%%, paper reports 80.7%%",
			sol.Objectives.TestQuality*100)
	}
}

// TestExperimentFig6 regenerates the memory-split view: among the
// representative implementations, shifting diagnostic memory to the
// gateway trades shut-off time for cost.
func TestExperimentFig6(t *testing.T) {
	if testing.Short() {
		t.Skip("full case study exploration")
	}
	res := runCaseStudy(t, 8_000, 3)
	picks := report.PickFig6(res, 7)
	if len(picks) < 4 {
		t.Fatalf("only %d representative implementations", len(picks))
	}
	// At least one implementation stores mostly at the gateway and one
	// mostly distributed; the gateway-heavy one must shut off slower.
	var maxGW, maxDist core.MemorySplit
	for _, s := range picks {
		ms := core.MemorySplitOf(s)
		if ms.GatewayBytes > maxGW.GatewayBytes {
			maxGW = ms
		}
		if ms.DistributedBytes > maxDist.DistributedBytes {
			maxDist = ms
		}
	}
	if maxGW.GatewayBytes == 0 {
		t.Skip("no gateway-storage implementation among picks (front too small)")
	}
	if maxGW.ShutOffMS <= maxDist.ShutOffMS && maxGW.GatewayBytes > maxDist.GatewayBytes {
		t.Fatalf("gateway-heavy (%d B gw, %.1f s) not slower than distributed-heavy (%d B gw, %.1f s)",
			maxGW.GatewayBytes, maxGW.ShutOffMS/1000, maxDist.GatewayBytes, maxDist.ShutOffMS/1000)
	}
}

// TestExperimentTableI regenerates the Table I characterization on the
// synthetic CUT, scales it to the paper's processor dimensions, and
// checks that the scaled data volumes land in the paper's order of
// magnitude (hundreds of kB to a few MB).
func TestExperimentTableI(t *testing.T) {
	if testing.Short() {
		t.Skip("fault simulation + ATPG")
	}
	cfg := stumps.Config{Chains: 8, ChainLen: 10, Seed: 17, WindowPatterns: 32, RestoreCycles: 200, TestClockHz: 40e6}
	cut := netlist.ScanCUT(5, cfg.Chains, cfg.ChainLen, 4)
	gen, err := bistgen.New(cut, bistgen.Options{Scan: cfg, MaxBacktracks: 150})
	if err != nil {
		t.Fatal(err)
	}
	profiles, err := gen.Characterize([]int{64, 256, 1024}, bistgen.DefaultTargets())
	if err != nil {
		t.Fatal(err)
	}
	from := bistgen.CUTDims{ScanCells: cut.NumInputs(), ChainLen: cfg.ChainLen, Faults: gen.TotalFaults()}
	for _, p := range profiles {
		scaled := bistgen.ScaleToCUT(p, from, bistgen.PaperCUT)
		if p.DetPatterns == 0 {
			continue // random phase alone reached the target
		}
		if scaled.DataBytes < 10_000 || scaled.DataBytes > 50_000_000 {
			t.Fatalf("scaled profile %d data = %d B, outside the paper's magnitude", p.Number, scaled.DataBytes)
		}
	}
	// Table I shape: the 95% profile of the first level needs at most
	// the max profile's data, and strictly less whenever the max run
	// actually exceeds the 95% target (prefix property of the top-off).
	if profiles[3].CareBits > profiles[0].CareBits {
		t.Fatalf("95%% profile (%d care bits) above max (%d)", profiles[3].CareBits, profiles[0].CareBits)
	}
	if profiles[0].Coverage > profiles[3].Coverage && profiles[3].CareBits == profiles[0].CareBits {
		t.Fatalf("95%% target met below max coverage but with identical data (%d care bits)", profiles[0].CareBits)
	}
}

// TestExperimentE5 checks Section III-B end to end: mirroring preserves
// every third-party worst-case response time while a burst transfer of
// one profile's pattern data breaks deadlines.
func TestExperimentE5(t *testing.T) {
	bus := can.Bus{BitRate: 500_000}
	own := []can.Frame{
		{ID: "c1", Priority: 2, Payload: 8, PeriodMS: 10},
		{ID: "c2", Priority: 6, Payload: 8, PeriodMS: 20},
		{ID: "c3", Priority: 9, Payload: 8, PeriodMS: 100},
	}
	var others []can.Frame
	for i := 0; i < 10; i++ {
		others = append(others, can.Frame{
			ID: string(rune('A' + i)), Priority: 3 + 2*i, Payload: 8, PeriodMS: 5,
		})
	}
	rep, err := can.VerifyNonIntrusive(bus, own, others)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("mirroring intrusive: %+v", rep)
	}
	burst, err := can.SimulateBurst(bus, others, casestudy.TableI()[2].DataBytes, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(burst.ViolatedDeadlines) == 0 {
		t.Fatal("burst transfer violated no deadline — the intrusive baseline should fail")
	}
}

// TestExperimentE6 reproduces the Section I motivation numbers:
// functional-style tests reach structural coverage in the vicinity of
// the cited 47 % [2], while the BIST session clearly exceeds them.
func TestExperimentE6(t *testing.T) {
	if testing.Short() {
		t.Skip("fault simulation")
	}
	cfg := stumps.Config{Chains: 8, ChainLen: 10, Seed: 42, WindowPatterns: 16}
	cut := netlist.ScanCUT(100, cfg.Chains, cfg.ChainLen, 4)
	cmp, err := diagnosis.CompareFunctionalVsStructural(cut, cfg, 256, 256, 7)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.FunctionalCoverage < 0.25 || cmp.FunctionalCoverage > 0.70 {
		t.Fatalf("functional coverage = %.1f%%, expected in the vicinity of the cited 47%%",
			cmp.FunctionalCoverage*100)
	}
	if cmp.StructuralCoverage < cmp.FunctionalCoverage+0.15 {
		t.Fatalf("structural %.1f%% does not clearly beat functional %.1f%%",
			cmp.StructuralCoverage*100, cmp.FunctionalCoverage*100)
	}
}

// TestExperimentA1 is the storage-placement ablation: forcing all
// pattern data to the gateway must reduce cost and inflate shut-off
// relative to forcing local storage, over whole exploration runs.
func TestExperimentA1(t *testing.T) {
	if testing.Short() {
		t.Skip("three exploration runs")
	}
	spec, err := casestudy.Build(casestudy.Options{ProfilesPerECU: 8})
	if err != nil {
		t.Fatal(err)
	}
	run := func(choice int) *core.Result {
		dec, err := core.NewGreedyDecoder(spec)
		if err != nil {
			t.Fatal(err)
		}
		dec.StorageChoice = choice
		res, err := core.NewExplorer(spec, dec).Run(moea.Options{PopSize: 64, Generations: 30, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	local := run(1)
	gateway := run(-1)
	// Compare the cheapest solutions reaching 70% quality.
	cheapest := func(res *core.Result) (core.Solution, bool) {
		var best core.Solution
		found := false
		for _, s := range res.Solutions {
			if s.Objectives.TestQuality >= 0.7 && (!found || s.Objectives.CostTotal < best.Objectives.CostTotal) {
				best, found = s, true
			}
		}
		return best, found
	}
	lb, lok := cheapest(local)
	gb, gok := cheapest(gateway)
	if !lok || !gok {
		t.Skipf("missing 70%%-quality solutions: local=%v gateway=%v", lok, gok)
	}
	// Hardware allocations drift between independent runs, so compare
	// the storage-driven quantities: the diagnostic memory cost (shared
	// gateway patterns are far cheaper) and the shut-off time (pattern
	// transfer over Eq. (1) is far slower).
	lmem := objective.MonetaryCosts(lb.Impl).Memory
	gmem := objective.MonetaryCosts(gb.Impl).Memory
	if gmem >= lmem {
		t.Fatalf("gateway-only memory cost (%.2f) not below local-only (%.2f) at 70%% quality", gmem, lmem)
	}
	if gb.Objectives.ShutOffMS <= lb.Objectives.ShutOffMS {
		t.Fatalf("gateway-only (%.1f s) not slower than local-only (%.1f s)",
			gb.Objectives.ShutOffMS/1000, lb.Objectives.ShutOffMS/1000)
	}
}

// TestExperimentA2 is the decoder ablation: SAT-decoding and the greedy
// decoder both deliver only feasible implementations; the SAT decoder
// honors the paper's constraint system exactly (verified through the
// independent model checker inside core tests), the greedy decoder
// trades decode fidelity for two orders of magnitude more throughput.
func TestExperimentA2(t *testing.T) {
	spec, err := casestudy.Small(3, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	sat, err := core.NewSATDecoder(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	greedy, err := core.NewGreedyDecoder(spec)
	if err != nil {
		t.Fatal(err)
	}
	for name, dec := range map[string]core.Decoder{"sat": sat, "greedy": greedy} {
		ex := core.NewExplorer(spec, dec)
		ex.Verify = true
		res, err := ex.Run(moea.Options{PopSize: 8, Generations: 4, Seed: 9})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.DecodeFailures != 0 {
			t.Fatalf("%s: %d decode failures", name, res.DecodeFailures)
		}
		if len(res.Solutions) == 0 {
			t.Fatalf("%s: empty front", name)
		}
	}
}

// TestExperimentA4 compares hardware BIST against the software-based
// self-test baseline ([14], DESIGN.md A4): with equal exploration
// budgets, the SBST-only front cannot reach the BIST front's test
// quality — the motivation for the paper's BIST integration.
func TestExperimentA4(t *testing.T) {
	if testing.Short() {
		t.Skip("two exploration runs")
	}
	run := func(opts casestudy.Options) float64 {
		spec, err := casestudy.Build(opts)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := core.NewGreedyDecoder(spec)
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.NewExplorer(spec, dec).Run(moea.Options{PopSize: 64, Generations: 40, Seed: 6})
		if err != nil {
			t.Fatal(err)
		}
		maxQ := 0.0
		for _, s := range res.Solutions {
			if s.Objectives.TestQuality > maxQ {
				maxQ = s.Objectives.TestQuality
			}
		}
		return maxQ
	}
	bist := run(casestudy.Options{ProfilesPerECU: 8})
	sbst := run(casestudy.Options{ProfilesPerECU: 8, IncludeSBST: true, ExcludeBIST: true})
	if sbst <= 0 {
		t.Fatal("SBST-only exploration found no diagnosis at all")
	}
	if bist <= sbst+0.1 {
		t.Fatalf("BIST max quality %.2f does not clearly beat SBST %.2f", bist, sbst)
	}
}

// TestExperimentE7 quantifies the workshop-repair motivation of
// Section I via the DTC baseline: with structural BIST the faulty ECU
// is named directly, collapsing the ambiguity sets of functional
// diagnosis.
func TestExperimentE7(t *testing.T) {
	if testing.Short() {
		t.Skip("case study decode")
	}
	spec, err := casestudy.Build(casestudy.Options{ProfilesPerECU: 4})
	if err != nil {
		t.Fatal(err)
	}
	dec, err := core.NewGreedyDecoder(spec)
	if err != nil {
		t.Fatal(err)
	}
	g := make([]float64, dec.GenotypeLen())
	for i := range g {
		g[i] = 0.9
	}
	x, err := dec.Decode(g)
	if err != nil {
		t.Fatal(err)
	}
	functional := dtc.FunctionalRepairStudy(x, 0.47)
	bist := dtc.BISTRepairStudy(x, 0.47)
	if bist.FirstTryRate < 2*functional.FirstTryRate {
		t.Fatalf("BIST first-try %.2f not 2x functional %.2f", bist.FirstTryRate, functional.FirstTryRate)
	}
	if bist.AvgFaultFreeDiscarded > functional.AvgFaultFreeDiscarded/2 {
		t.Fatalf("BIST discards %.2f, functional %.2f — reduction too small",
			bist.AvgFaultFreeDiscarded, functional.AvgFaultFreeDiscarded)
	}
}

// TestExperimentE10 is the future-architecture study the paper alludes
// to ("existing and future automotive architectures"): migrating the
// buses to CAN FD with 64-byte container PDUs multiplies the mirrored
// Eq. (1) bandwidth, so gateway-stored patterns transfer ~8x faster and
// the high-quality region of the front shifts to far lower shut-off
// times at comparable quality.
func TestExperimentE10(t *testing.T) {
	if testing.Short() {
		t.Skip("two exploration runs")
	}
	run := func(fd int) *core.Result {
		spec, err := casestudy.Build(casestudy.Options{ProfilesPerECU: 8, FDPayload: fd})
		if err != nil {
			t.Fatal(err)
		}
		dec, err := core.NewGreedyDecoder(spec)
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.NewExplorer(spec, dec).Run(moea.Options{PopSize: 64, Generations: 40, Seed: 8})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	classic := run(0)
	fd := run(64)
	// Minimum shut-off among gateway-storage (>1 s) solutions reaching
	// 80% quality.
	minShut := func(res *core.Result) float64 {
		best := math.Inf(1)
		for _, s := range res.Solutions {
			if s.Objectives.TestQuality >= 0.8 && s.Objectives.ShutOffMS > 1000 &&
				s.Objectives.ShutOffMS < best {
				best = s.Objectives.ShutOffMS
			}
		}
		return best
	}
	cs, fs := minShut(classic), minShut(fd)
	if math.IsInf(cs, 1) || math.IsInf(fs, 1) {
		t.Skipf("no gateway-storage high-quality points: classic=%v fd=%v", cs, fs)
	}
	if fs >= cs/3 {
		t.Fatalf("FD architecture shut-off %.1f s not clearly below classic %.1f s", fs/1000, cs/1000)
	}
}

// TestExperimentE12 regenerates the fault-injection study: the Eq. (1)
// transfer time degrades gracefully over the BER sweep while the
// certified schedule holds through 1e-4 and collapses at 1e-2; the
// reliable gateway session survives a lossy bus, falls back to local
// b^D storage under a harsh burst, and resumes without re-sending
// delivered chunks; and the degraded-mode DSE objective penalizes
// gateway-stored pattern data over local storage.
func TestExperimentE12(t *testing.T) {
	bus := can.Bus{Name: "can0", BitRate: 500_000}
	own := []can.Frame{
		{ID: "own0", Priority: 1, Payload: 8, PeriodMS: 10},
		{ID: "own1", Priority: 3, Payload: 8, PeriodMS: 20},
		{ID: "own2", Priority: 5, Payload: 8, PeriodMS: 50},
	}
	var others []can.Frame
	for i := 0; i < 8; i++ {
		others = append(others, can.Frame{
			ID: string(rune('m' + i)), Priority: 2 + 2*i, Payload: 8, PeriodMS: 50,
		})
	}
	const demoBytes = 994_156 // Table I profile 3

	// Sweep: transfer time is monotone in the BER, the schedule holds
	// through 1e-4, and 1e-2 drives the WCRT past the deadlines.
	prev := 0.0
	for _, ber := range []float64{0, 1e-7, 1e-6, 1e-5, 1e-4} {
		m := can.ErrorModel{BitErrorRate: ber}
		q := can.TransferTimeMSFaulty(bus, demoBytes, own, m)
		if q < prev {
			t.Fatalf("transfer time shrank at BER %g: %.1f < %.1f", ber, q, prev)
		}
		prev = q
		rep, err := can.VerifyNonIntrusiveUnderErrors(bus, own, others, m)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Holds() {
			t.Fatalf("certified schedule broken at BER %g: %+v", ber, rep)
		}
	}
	harshRep, err := can.VerifyNonIntrusiveUnderErrors(bus, own, others, can.ErrorModel{BitErrorRate: 1e-2})
	if err != nil {
		t.Fatal(err)
	}
	if harshRep.Holds() || len(harshRep.DeadlineMisses) == 0 {
		t.Fatalf("BER 1e-2 should break third-party deadlines: %+v", harshRep)
	}

	// Reliable session: delivery at BER 1e-3, local fallback under a
	// harsh burst, then a resume that re-sends nothing.
	fd := stumps.FailData{Windows: 16, Entries: []stumps.FailEntry{{Window: 3, Got: 0xdead, Want: 0xbeef}}}
	var collector gateway.Collector
	scfg := gateway.SessionConfig{ChunkBytes: 32}
	res, err := collector.IngestReliable("ecu03", fd, bus, can.ErrorModel{BitErrorRate: 1e-3, Seed: 7}, scfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Delivered || res.Retries == 0 {
		t.Fatalf("lossy delivery: %+v (want delivered with retries)", res)
	}
	snd, err := gateway.NewSession("ecu03", 77, fd, scfg)
	if err != nil {
		t.Fatal(err)
	}
	sink, err := gateway.NewAssembler(snd.SessionID(), snd.NumChunks())
	if err != nil {
		t.Fatal(err)
	}
	harsh := gateway.NewFaultyChannel(bus, can.ErrorModel{BitErrorRate: 2e-2, Seed: 9}, sink)
	first := snd.Run(harsh)
	if first.Delivered || !first.LocalFallback {
		t.Fatalf("harsh burst: %+v (want local fallback)", first)
	}
	clean := gateway.NewFaultyChannel(bus, can.ErrorModel{}, sink)
	second := snd.Run(clean)
	want := int(snd.NumChunks() - first.ResumeSeq)
	if !second.Delivered || second.ChunksSent != want {
		t.Fatalf("resume: %+v (want delivery in exactly %d sends)", second, want)
	}
	blob, err := sink.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	rec, err := gateway.Unmarshal(blob)
	if err != nil {
		t.Fatal(err)
	}
	if rec.ECU != "ecu03" || len(rec.Fail.Entries) != 1 {
		t.Fatalf("reassembled record corrupted: %+v", rec)
	}

	// Degraded-mode objective: gateway-storage solutions carry a robust
	// score above their ideal shut-off time; purely local ones do not.
	if testing.Short() {
		t.Skip("robust exploration")
	}
	spec, err := casestudy.Small(4, 6, 7)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := core.NewGreedyDecoder(spec)
	if err != nil {
		t.Fatal(err)
	}
	ex := core.NewExplorer(spec, dec)
	ex.Robust = objective.RobustConfig{ErrorRate: 1e-5}
	front, err := ex.Run(moea.Options{PopSize: 32, Generations: 16, Seed: 5, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	sawGateway := false
	for _, s := range front.Solutions {
		if !s.Objectives.RobustOn {
			t.Fatalf("solution without robust objective: %+v", s.Objectives)
		}
		if math.IsInf(s.Objectives.ShutOffMS, 1) {
			continue
		}
		if s.Objectives.RobustMS+1e-9 < s.Objectives.ShutOffMS {
			t.Fatalf("robust score %.3f below ideal shut-off %.3f",
				s.Objectives.RobustMS, s.Objectives.ShutOffMS)
		}
		ms := core.MemorySplitOf(s)
		if ms.GatewayBytes > 0 && s.Objectives.RobustMS > s.Objectives.ShutOffMS {
			sawGateway = true
		}
	}
	if !sawGateway {
		t.Skip("front holds no gateway-storage solution to exhibit the penalty")
	}
}
