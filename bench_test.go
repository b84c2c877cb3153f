package repro

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/atpg"
	"repro/internal/bistgen"
	"repro/internal/can"
	"repro/internal/casestudy"
	"repro/internal/core"
	"repro/internal/diagnosis"
	"repro/internal/dtc"
	"repro/internal/faultsim"
	"repro/internal/fleet"
	"repro/internal/gateway"
	"repro/internal/moea"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/reseed"
	"repro/internal/schedule"
	"repro/internal/simulate"
	"repro/internal/stumps"
)

// --- E1: Table I — BIST profile characterization -----------------------

// BenchmarkTableI_ProfileCharacterization measures the full mixed-mode
// characterization flow (LFSR fault simulation + PODEM top-off) that
// regenerates the shape of the paper's Table I on a synthetic CUT.
func BenchmarkTableI_ProfileCharacterization(b *testing.B) {
	cfg := stumps.Config{Chains: 8, ChainLen: 10, Seed: 17, WindowPatterns: 32, RestoreCycles: 200, TestClockHz: 40e6}
	cut := netlist.ScanCUT(5, cfg.Chains, cfg.ChainLen, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gen, err := bistgen.New(cut, bistgen.Options{Scan: cfg, MaxBacktracks: 150})
		if err != nil {
			b.Fatal(err)
		}
		profiles, err := gen.Characterize([]int{64, 256}, bistgen.DefaultTargets())
		if err != nil {
			b.Fatal(err)
		}
		if len(profiles) != 8 {
			b.Fatalf("profiles = %d", len(profiles))
		}
	}
}

// --- E2: Fig. 5 — the design space exploration --------------------------

// BenchmarkFig5_DSE runs the three-objective exploration on the full
// case study (15 ECUs × 36 profiles) and reports evaluation throughput;
// the paper evaluated 100,000 implementations in ~29 minutes.
func BenchmarkFig5_DSE(b *testing.B) {
	spec, err := casestudy.Build(casestudy.Options{})
	if err != nil {
		b.Fatal(err)
	}
	dec, err := core.NewGreedyDecoder(spec)
	if err != nil {
		b.Fatal(err)
	}
	ex := core.NewExplorer(spec, dec)
	b.ResetTimer()
	evals := 0
	for i := 0; i < b.N; i++ {
		res, err := ex.Run(moea.Options{PopSize: 64, Generations: 15, Seed: int64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		evals += res.Evaluations
	}
	b.ReportMetric(float64(evals)/b.Elapsed().Seconds(), "evals/s")
}

// --- E3: Fig. 6 — gateway vs distributed memory split -------------------

func BenchmarkFig6_MemorySplit(b *testing.B) {
	spec, err := casestudy.Build(casestudy.Options{ProfilesPerECU: 8})
	if err != nil {
		b.Fatal(err)
	}
	dec, err := core.NewGreedyDecoder(spec)
	if err != nil {
		b.Fatal(err)
	}
	res, err := core.NewExplorer(spec, dec).Run(moea.Options{PopSize: 32, Generations: 10, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range res.Solutions {
			core.MemorySplitOf(s)
		}
	}
}

// --- E4: headline — evaluation throughput -------------------------------

// BenchmarkEvalThroughput measures one decode + objective evaluation on
// the full case study, on the path campaigns run (the greedy decoder's
// per-worker state). The paper's rate is ~57 evals/s (100k in 29 min)
// on 2013 hardware.
func BenchmarkEvalThroughput(b *testing.B) {
	benchEvaluate(b, casestudy.Options{}, false, nil)
}

// BenchmarkDecodeEvaluate measures the full per-candidate hot loop of
// the exploration — SAT decode (genotype → branching → PB solver →
// implementation) plus the three-objective evaluation — on the paper's
// case study encoding (4 profiles per ECU). This is the path the
// solver's propagation, the reusable decoder state and the indexed
// objectives optimize; -benchmem shows the allocation trajectory.
func BenchmarkDecodeEvaluate(b *testing.B) {
	benchEvaluate(b, casestudy.Options{ProfilesPerECU: 4}, true, nil)
}

// BenchmarkDecodeEvaluateFull is BenchmarkDecodeEvaluate at paper
// scale: all 36 profiles per ECU, the ~55k-variable encoding the
// paper's own SAT-decoding runs on.
func BenchmarkDecodeEvaluateFull(b *testing.B) {
	benchEvaluate(b, casestudy.Options{ProfilesPerECU: 36}, true, nil)
}

// BenchmarkDecodeEvaluateObs is the hot loop of BenchmarkDecodeEvaluate
// with a live tracer (event recording on), quantifying the per-span
// metering overhead against the untraced baseline. The gated baseline
// stays the untraced variant — this one is informational.
func BenchmarkDecodeEvaluateObs(b *testing.B) {
	benchEvaluate(b, casestudy.Options{ProfilesPerECU: 4}, true,
		obs.NewTracer(obs.NewRegistry(), obs.TracerConfig{Record: true}))
}

// benchEvaluate times Explorer.Evaluate on worker 0 — the call the
// evaluation pool makes for every genotype of a campaign — over 64
// fixed random genotypes, decoding with the SAT decoder when sat is set
// and the greedy decoder otherwise.
func benchEvaluate(b *testing.B, opts casestudy.Options, sat bool, tr *obs.Tracer) {
	spec, err := casestudy.Build(opts)
	if err != nil {
		b.Fatal(err)
	}
	var dec core.Decoder
	if sat {
		dec, err = core.NewSATDecoder(spec, 0)
	} else {
		dec, err = core.NewGreedyDecoder(spec)
	}
	if err != nil {
		b.Fatal(err)
	}
	ex := core.NewExplorer(spec, dec)
	ex.Obs = tr
	rng := rand.New(rand.NewSource(1))
	genotypes := make([][]float64, 64)
	for i := range genotypes {
		g := make([]float64, dec.GenotypeLen())
		for j := range g {
			g[j] = rng.Float64()
		}
		genotypes[i] = g
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ex.Evaluate(0, genotypes[i%len(genotypes)])
	}
}

// BenchmarkDSEParallel sweeps the MOEA worker count on the full case
// study so the per-worker decoder-state reuse shows up in the bench
// trajectory. Fronts are identical across the sweep; see
// TestExplorerWorkerSweepDeterministic.
func BenchmarkDSEParallel(b *testing.B) {
	spec, err := casestudy.Build(casestudy.Options{})
	if err != nil {
		b.Fatal(err)
	}
	dec, err := core.NewGreedyDecoder(spec)
	if err != nil {
		b.Fatal(err)
	}
	ex := core.NewExplorer(spec, dec)
	workerCounts := []int{1, 2, 4, 8}
	if n := runtime.GOMAXPROCS(0); n != 1 && n != 2 && n != 4 && n != 8 {
		workerCounts = append(workerCounts, n) // e.g. 16 on a 16-core runner
	}
	for _, w := range workerCounts {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			evals := 0
			for i := 0; i < b.N; i++ {
				res, err := ex.Run(moea.Options{PopSize: 64, Generations: 10, Seed: int64(i + 1), Workers: w})
				if err != nil {
					b.Fatal(err)
				}
				evals += res.Evaluations
			}
			b.ReportMetric(float64(evals)/b.Elapsed().Seconds(), "evals/s")
		})
	}
}

// BenchmarkDSETelemetry is BenchmarkDSEParallel's all-core case with
// the per-generation telemetry stream enabled (throughput, archive
// size, hypervolume, decode/solver counters) — quantifying the
// observability overhead against the matching workers=N DSEParallel
// sub-benchmark. Checkpoint durability is benchmarked separately
// (BenchmarkDSECheckpoint): its cost is one fsync per CheckpointEvery
// generations, amortized by cadence rather than per-generation.
func BenchmarkDSETelemetry(b *testing.B) {
	benchDSEWith(b, func(ex *core.Explorer, _ *moea.Options) {
		ex.OnProgress = func(core.Progress) {}
	})
}

// BenchmarkDSECheckpoint measures periodic checkpointing alone (atomic
// write + fsync + rename every 5 of 10 generations — a deliberately
// aggressive cadence; real campaigns checkpoint far less often relative
// to generation time).
func BenchmarkDSECheckpoint(b *testing.B) {
	path := filepath.Join(b.TempDir(), "cp.json")
	benchDSEWith(b, func(_ *core.Explorer, opt *moea.Options) {
		opt.CheckpointEvery = 5
		opt.OnCheckpoint = func(cp *moea.IslandCheckpoint) error { return cp.WriteFile(path) }
	})
}

// benchDSEWith runs the all-core 10-generation DSE with run services
// switched on by setup.
func benchDSEWith(b *testing.B, setup func(*core.Explorer, *moea.Options)) {
	spec, err := casestudy.Build(casestudy.Options{})
	if err != nil {
		b.Fatal(err)
	}
	dec, err := core.NewGreedyDecoder(spec)
	if err != nil {
		b.Fatal(err)
	}
	ex := core.NewExplorer(spec, dec)
	opt := moea.Options{PopSize: 64, Generations: 10, Workers: runtime.GOMAXPROCS(0)}
	setup(ex, &opt)
	evals := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt.Seed = int64(i + 1)
		res, err := ex.RunContext(context.Background(), opt)
		if err != nil {
			b.Fatal(err)
		}
		evals += res.Evaluations
	}
	b.ReportMetric(float64(evals)/b.Elapsed().Seconds(), "evals/s")
}

// BenchmarkIslandEpoch measures the unit the process-sharded
// orchestrator schedules: one migration epoch of a 4-island campaign on
// the full case study, stepped shard by shard (EpochStep, 2 shards) and
// merged centrally (MergeShards), swept over worker counts. Each
// iteration re-steps the same epoch from the same post-migration
// checkpoint, so the work includes the per-epoch restore the worker
// processes pay (zipping stored genotypes and objectives; nothing is
// evaluated again) — the critical path of an orchestrated campaign.
// evals/s counts the epoch's campaign evaluations (islands × pop ×
// migrate-every), which are all the evaluations an iteration makes.
func BenchmarkIslandEpoch(b *testing.B) {
	spec, err := casestudy.Build(casestudy.Options{})
	if err != nil {
		b.Fatal(err)
	}
	dec, err := core.NewGreedyDecoder(spec)
	if err != nil {
		b.Fatal(err)
	}
	ex := core.NewExplorer(spec, dec)
	step := func(b *testing.B, opt moea.Options, full *moea.IslandCheckpoint, procs int) *moea.IslandCheckpoint {
		parts := make([]*moea.IslandCheckpoint, procs)
		for k := range parts {
			first, count := moea.ShardRange(opt.Islands, procs, k)
			part, err := ex.EpochStep(context.Background(), opt, full, first, count)
			if err != nil {
				b.Fatal(err)
			}
			parts[k] = part
		}
		merged, _, err := moea.MergeShards(parts, opt)
		if err != nil {
			b.Fatal(err)
		}
		return merged
	}
	bootOpt := moea.Options{PopSize: 32, Generations: 15, Seed: 1, Workers: runtime.GOMAXPROCS(0),
		Islands: 4, MigrateEvery: 5, Migrants: 4}
	full := step(b, bootOpt, nil, 2) // bootstrap epoch 0 once
	epochEvals := bootOpt.Islands * bootOpt.PopSize * bootOpt.MigrateEvery
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			opt := bootOpt
			opt.Workers = w
			for i := 0; i < b.N; i++ {
				step(b, opt, full, 2)
			}
			b.ReportMetric(float64(epochEvals*b.N)/b.Elapsed().Seconds(), "evals/s")
		})
	}
}

// --- E5: Eq. (1) and non-intrusive mirroring -----------------------------

func BenchmarkEq1_TransferTime(b *testing.B) {
	frames := []can.Frame{
		{ID: "c1", Priority: 1, Payload: 8, PeriodMS: 10},
		{ID: "c2", Priority: 2, Payload: 8, PeriodMS: 20},
		{ID: "c3", Priority: 3, Payload: 8, PeriodMS: 100},
	}
	profiles := casestudy.TableI()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range profiles {
			can.TransferTimeMS(p.DataBytes, frames)
		}
	}
}

// BenchmarkMirrorVerification measures the response-time analysis that
// certifies mirroring as non-intrusive (Fig. 4 claim).
func BenchmarkMirrorVerification(b *testing.B) {
	bus := can.Bus{BitRate: 500_000}
	var own, others []can.Frame
	for i := 0; i < 4; i++ {
		own = append(own, can.Frame{ID: string(rune('a' + i)), Priority: 1 + 2*i, Payload: 8, PeriodMS: 20})
	}
	for i := 0; i < 12; i++ {
		others = append(others, can.Frame{ID: string(rune('m' + i)), Priority: 2 + 2*i, Payload: 8, PeriodMS: 50})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := can.VerifyNonIntrusive(bus, own, others)
		if err != nil || !rep.OK() {
			b.Fatalf("rep=%+v err=%v", rep, err)
		}
	}
}

// --- E6: functional vs structural coverage ------------------------------

func BenchmarkFunctionalVsStructural(b *testing.B) {
	cfg := stumps.Config{Chains: 8, ChainLen: 10, Seed: 42, WindowPatterns: 16}
	cut := netlist.ScanCUT(100, cfg.Chains, cfg.ChainLen, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cmp, err := diagnosis.CompareFunctionalVsStructural(cut, cfg, 256, 256, 7)
		if err != nil {
			b.Fatal(err)
		}
		if cmp.StructuralCoverage <= cmp.FunctionalCoverage {
			b.Fatal("structural must win")
		}
	}
}

// --- A1: ablation — storage placement -----------------------------------

func BenchmarkAblationStorage(b *testing.B) {
	spec, err := casestudy.Build(casestudy.Options{ProfilesPerECU: 8})
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name   string
		choice int
	}{{"free", 0}, {"local-only", 1}, {"gateway-only", -1}} {
		b.Run(bc.name, func(b *testing.B) {
			dec, err := core.NewGreedyDecoder(spec)
			if err != nil {
				b.Fatal(err)
			}
			dec.StorageChoice = bc.choice
			ex := core.NewExplorer(spec, dec)
			for i := 0; i < b.N; i++ {
				if _, err := ex.Run(moea.Options{PopSize: 32, Generations: 8, Seed: int64(i + 1)}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- A2: ablation — SAT-decoding vs greedy decoding ----------------------

func BenchmarkAblationDecoder(b *testing.B) {
	spec, err := casestudy.Small(3, 4, 7)
	if err != nil {
		b.Fatal(err)
	}
	greedy, err := core.NewGreedyDecoder(spec)
	if err != nil {
		b.Fatal(err)
	}
	sat, err := core.NewSATDecoder(spec, 0)
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		dec  core.Decoder
	}{{"greedy", greedy}, {"sat", sat}} {
		b.Run(bc.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(2))
			g := make([]float64, bc.dec.GenotypeLen())
			for i := 0; i < b.N; i++ {
				for j := range g {
					g[j] = rng.Float64()
				}
				if _, err := bc.dec.Decode(g); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- substrate micro-benchmarks ------------------------------------------

// BenchmarkFaultSimParallel sweeps the fault-list worker count on a
// Table-I-scale case-study CUT (the bistprof default: 10 chains × 12
// cells, 4 gates per cell) so the sharded speedup is visible in the
// bench trajectory. Detections are byte-identical across the sweep; see
// TestFaultSimWorkerSweep.
func BenchmarkFaultSimParallel(b *testing.B) {
	cut := netlist.ScanCUT(5, 10, 12, 4)
	faults := netlist.CollapsedFaults(cut)
	cfg := stumps.Config{Chains: 10, ChainLen: 12, Seed: 17}
	workerCounts := []int{1, 2, 4}
	if n := runtime.GOMAXPROCS(0); n != 1 && n != 2 && n != 4 {
		workerCounts = append(workerCounts, n)
	}
	for _, w := range workerCounts {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				fs := faultsim.NewFaultSim(cut, faults).SetWorkers(w)
				prpg, err := stumps.NewPRPG(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := fs.RunCoverage(prpg, 2048); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBISTSession measures a full STUMPS session with intermediate
// signatures.
func BenchmarkBISTSession(b *testing.B) {
	cfg := stumps.Config{Chains: 8, ChainLen: 10, Seed: 17, WindowPatterns: 32}
	cut := netlist.ScanCUT(5, cfg.Chains, cfg.ChainLen, 4)
	s, err := stumps.NewSession(cut, cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Signatures(256, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// --- extended substrates -------------------------------------------------

// BenchmarkReseedEncode measures GF(2) seed solving for sparse top-off
// cubes (the encoded deterministic test data of the STUMPS flow).
func BenchmarkReseedEncode(b *testing.B) {
	enc, err := reseed.NewEncoder(128, 16, 16)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	cubes := make([]atpg.Cube, 16)
	for k := range cubes {
		c := make(atpg.Cube, 256)
		for i := range c {
			c[i] = atpg.X
		}
		for j := 0; j < 40; j++ {
			c[rng.Intn(256)] = atpg.FromBool(rng.Intn(2) == 1)
		}
		cubes[k] = c
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := enc.EncodeSet(cubes)
		if err != nil {
			b.Fatal(err)
		}
		if len(out.Seeds) == 0 {
			b.Fatal("nothing encoded")
		}
	}
}

// BenchmarkBusSimulation measures the discrete-event CAN arbitration
// trace used for the Fig. 4 schedule-equivalence experiment (E8).
func BenchmarkBusSimulation(b *testing.B) {
	bus := can.Bus{BitRate: 500_000}
	var frames []can.Frame
	for i := 0; i < 20; i++ {
		frames = append(frames, can.Frame{
			ID: fmt.Sprintf("f%d", i), Priority: i + 1, Payload: 8,
			PeriodMS: []float64{10, 20, 50, 100}[i%4],
		})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trace, err := simulate.SimulateBus(bus, frames, 1000)
		if err != nil || len(trace) == 0 {
			b.Fatalf("trace %d err %v", len(trace), err)
		}
	}
}

// BenchmarkWorkshopRepairStudy measures the E7 DTC-vs-BIST comparison.
func BenchmarkWorkshopRepairStudy(b *testing.B) {
	spec, err := casestudy.Build(casestudy.Options{ProfilesPerECU: 4})
	if err != nil {
		b.Fatal(err)
	}
	dec, err := core.NewGreedyDecoder(spec)
	if err != nil {
		b.Fatal(err)
	}
	g := make([]float64, dec.GenotypeLen())
	for i := range g {
		g[i] = 0.9
	}
	x, err := dec.Decode(g)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := dtc.FunctionalRepairStudy(x, 0.47)
		bi := dtc.BISTRepairStudy(x, 0.47)
		if bi.FirstTryRate <= f.FirstTryRate {
			b.Fatal("BIST lost the repair study")
		}
	}
}

// BenchmarkPeriodicSchedule measures the E9 parking-event planner.
func BenchmarkPeriodicSchedule(b *testing.B) {
	spec, err := casestudy.Small(3, 4, 7)
	if err != nil {
		b.Fatal(err)
	}
	dec, err := core.NewGreedyDecoder(spec)
	if err != nil {
		b.Fatal(err)
	}
	dec.StorageChoice = -1
	g := make([]float64, dec.GenotypeLen())
	for i := range g {
		g[i] = 0.9
	}
	x, err := dec.Decode(g)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan := schedule.PeriodicTest(x, 2000)
		if len(plan.PerECU) == 0 {
			b.Fatal("empty plan")
		}
	}
}

// --- E12: fault-tolerant transfer ---------------------------------------

// BenchmarkTransferUnderErrors measures the reliable gateway session
// (chunking, CRC verification, seeded error process, retransmission)
// delivering one BIST record across a lossy CAN segment.
func BenchmarkTransferUnderErrors(b *testing.B) {
	bus := can.Bus{Name: "diag", BitRate: 500_000}
	fd := stumps.FailData{Windows: 64}
	for w := 0; w < 16; w++ {
		fd.Entries = append(fd.Entries, stumps.FailEntry{Window: w, Got: uint64(0xdead0000 + w), Want: 0xbeef})
	}
	m := can.ErrorModel{BitErrorRate: 1e-3, Seed: 11}
	cfg := gateway.SessionConfig{ChunkBytes: 64}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var collector gateway.Collector
		res, err := collector.IngestReliable("ecu01", fd, bus, m, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Delivered {
			b.Fatalf("transfer failed: %+v", res)
		}
	}
}

// --- E15: fleet-scale ingest --------------------------------------------

// BenchmarkFleetIngest measures the sharded fleet service end to end:
// a seeded vehicle population streaming BIST records through the
// reliable session machinery into the lock-striped ingest path, swept
// over shard and worker counts to expose the contention profile.
func BenchmarkFleetIngest(b *testing.B) {
	cfg := fleet.PopulationConfig{
		Vehicles:       256,
		ECUs:           []string{"ecu01", "ecu02", "ecu03", "ecu04"},
		SessionsPerECU: 1,
		FailProb:       0.1,
		Seed:           11,
		ErrorRate:      1e-5,
	}
	for _, shards := range []int{1, 4, 8} {
		for _, workers := range []int{1, 4, 8} {
			b.Run(fmt.Sprintf("shards=%d/workers=%d", shards, workers), func(b *testing.B) {
				c := cfg
				c.Workers = workers
				b.ReportAllocs()
				sessions := 0
				for i := 0; i < b.N; i++ {
					srv := fleet.New(fleet.Config{Shards: shards})
					res, err := fleet.RunPopulation(context.Background(), srv, c)
					if err != nil {
						b.Fatal(err)
					}
					if res.Delivered != res.Sessions {
						b.Fatalf("degraded sessions under benchmark config: %+v", res)
					}
					sessions += res.Sessions
				}
				b.ReportMetric(float64(sessions)/b.Elapsed().Seconds(), "sessions/s")
			})
		}
	}
}

// --- E17: durable fleet persistence -------------------------------------

// BenchmarkFleetIngestDurable is BenchmarkFleetIngest with the WAL on:
// every session commit is framed, CRC'd, and group-commit-fsynced to a
// real data directory before it is acknowledged. Compared against
// FleetIngest it prices the durability guarantee; the group commit
// keeps the per-session cost roughly flat as workers grow.
func BenchmarkFleetIngestDurable(b *testing.B) {
	cfg := fleet.PopulationConfig{
		Vehicles:       256,
		ECUs:           []string{"ecu01", "ecu02", "ecu03", "ecu04"},
		SessionsPerECU: 1,
		FailProb:       0.1,
		Seed:           11,
		ErrorRate:      1e-5,
	}
	for _, workers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("shards=8/workers=%d", workers), func(b *testing.B) {
			c := cfg
			c.Workers = workers
			b.ReportAllocs()
			sessions := 0
			for i := 0; i < b.N; i++ {
				srv := fleet.New(fleet.Config{Shards: 8})
				if _, err := srv.OpenDurable(fleet.DurableConfig{
					Dir: filepath.Join(b.TempDir(), "data"),
				}); err != nil {
					b.Fatal(err)
				}
				res, err := fleet.RunPopulation(context.Background(), srv, c)
				if err != nil {
					b.Fatal(err)
				}
				if res.Delivered != res.Sessions {
					b.Fatalf("degraded sessions under benchmark config: %+v", res)
				}
				if err := srv.CloseDurable(); err != nil {
					b.Fatal(err)
				}
				sessions += res.Sessions
			}
			b.ReportMetric(float64(sessions)/b.Elapsed().Seconds(), "sessions/s")
		})
	}
}

// BenchmarkFleetRecovery measures cold-start recovery: replaying a
// WAL-only data directory (no snapshot, the worst case) of a full
// population back into an empty server.
func BenchmarkFleetRecovery(b *testing.B) {
	cfg := fleet.PopulationConfig{
		Vehicles:       256,
		ECUs:           []string{"ecu01", "ecu02", "ecu03", "ecu04"},
		SessionsPerECU: 1,
		FailProb:       0.1,
		Seed:           11,
		ErrorRate:      1e-5,
		Workers:        8,
	}
	dir := filepath.Join(b.TempDir(), "data")
	seedSrv := fleet.New(fleet.Config{Shards: 8})
	// SnapshotEvery < 0 disables snapshots entirely: recovery must
	// replay every commit from the log.
	if _, err := seedSrv.OpenDurable(fleet.DurableConfig{Dir: dir, SnapshotEvery: -1}); err != nil {
		b.Fatal(err)
	}
	res, err := fleet.RunPopulation(context.Background(), seedSrv, cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := seedSrv.CloseDurable(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		srv := fleet.New(fleet.Config{Shards: 8})
		rec, err := srv.OpenDurable(fleet.DurableConfig{Dir: dir, SnapshotEvery: -1})
		if err != nil {
			b.Fatal(err)
		}
		if rec.Entries != res.Sessions {
			b.Fatalf("recovered %d entries, want %d", rec.Entries, res.Sessions)
		}
		b.StopTimer()
		srv.KillDurable() // leave the log untouched for the next iteration
		b.StartTimer()
	}
	b.ReportMetric(float64(res.Sessions), "sessions")
}
