// Command eedse runs the paper's design space exploration on the
// Section IV case study and prints the Fig. 5 Pareto front, the Fig. 6
// memory split, and the headline summary.
//
// Usage:
//
//	eedse [-evals 100000] [-pop 128] [-seed 1] [-profiles 36]
//	      [-decoder greedy|sat] [-threshold 20] [-fig5] [-fig6] [-summary]
//	      [-workers N] [-measured] [-cpuprofile dse.pprof] [-memprofile heap.pprof]
//	      [-checkpoint cp.json] [-checkpoint-every 10] [-resume cp.json]
//	      [-progress] [-progress-addr 127.0.0.1:6060]
//	      [-robust] [-error-rate 1e-5]
//	      [-islands N] [-migrate-every 10] [-migrants 4]
//
// -islands N (default 1) runs NSGA-II as N independent populations on
// derived seed streams, coupled by ring migration every -migrate-every
// generations (-migrants archive representatives per epoch); one island
// is the classic single-population run. For a fixed (seed, islands,
// migration) tuple the merged front is byte-identical at any -workers
// count. NSGA-II checkpoints use the island checkpoint format and must
// be resumed with the same -islands/-migrate-every/-migrants values.
//
// -procs P shards the island campaign across P worker processes: each
// migration epoch the orchestrator re-execs itself P times in worker
// mode (one contiguous island subset per worker), merges the partial
// island checkpoints they write, performs the ring migration centrally,
// writes the full campaign checkpoint (-checkpoint, the recovery point
// — killing the orchestrator mid-epoch loses at most the epoch in
// flight) and loops. The front is byte-identical to the in-process -islands run at
// any -procs and any -workers; -max-epochs N stops deterministically
// after N merged epochs (continue with -resume). Total evaluation
// goroutines are -procs × -workers.
//
// -epoch-step is the worker mode -procs spawns internally: advance the
// islands of shard -island-shard k/P by exactly one migration epoch
// from the -resume campaign checkpoint (without -resume, bootstrap
// epoch 0), write the shard's partial island checkpoint to -shard-out, print
// nothing, exit.
//
// -robust adds the degraded-mode transfer score (expected BIST transfer
// completion plus deadline-miss penalty under a CAN bit-error rate) as
// a fourth minimized objective; -error-rate sets the bit-error rate and
// implies -robust when positive. With the objective disabled (or the
// rate at 0) results are bit-identical to pre-robustness runs.
//
// Without -fig5/-fig6/-summary all three reports are printed.
//
// -workers defaults to runtime.GOMAXPROCS(0) so candidate evaluation
// (and, with -measured, fault-simulation grading) uses every core;
// results are deterministic and identical for any worker count.
//
// Long campaigns are survivable: -checkpoint snapshots the NSGA-II
// campaign state (atomically) to a versioned island checkpoint file
// every -checkpoint-every generations, SIGINT/SIGTERM stop the run at
// the next generation boundary, write a final checkpoint, and still
// emit the partial Pareto front, and -resume continues a checkpointed
// run to a byte-identical front. Random search (-optimizer random) is a
// plain ablation that does not checkpoint: -checkpoint, -resume and
// -checkpoint-every are rejected with it. -progress streams one
// structured line per generation to stderr; -progress-addr additionally
// serves the same counters as Prometheus text on /metrics, plus the
// pprof handlers on /debug/pprof.
// -trace-out records per-stage spans (SAT decode, objective evaluation,
// generation steps, migration epochs, shard spawns/merges) plus
// periodic metric snapshots as JSONL — a flight recorder for post-hoc
// analysis with cmd/obsdump. Tracing is purely observational: fronts
// are byte-identical with it on or off.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/casestudy"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/moea"
	"repro/internal/objective"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/shard"
)

// errInterrupted marks a run stopped by SIGINT/SIGTERM after its
// partial results were written; main exits 130 without re-printing it.
var errInterrupted = errors.New("interrupted")

func main() {
	err := run()
	switch {
	case err == nil:
	case errors.Is(err, errInterrupted):
		os.Exit(130)
	default:
		fmt.Fprintln(os.Stderr, "eedse:", err)
		os.Exit(1)
	}
}

func run() (err error) {
	var (
		evals     = flag.Int("evals", 20000, "number of implementations to evaluate (paper: 100000)")
		pop       = flag.Int("pop", 128, "MOEA population size")
		seed      = flag.Int64("seed", 1, "optimization seed")
		profiles  = flag.Int("profiles", 36, "BIST profiles per ECU (1..36)")
		decoder   = flag.String("decoder", "greedy", "genotype decoder: greedy or sat")
		threshold = flag.Float64("threshold", 20, "Fig. 5 shut-off marker threshold in seconds")
		fig5      = flag.Bool("fig5", false, "print the Fig. 5 scatter")
		fig6      = flag.Bool("fig6", false, "print the Fig. 6 memory split")
		summary   = flag.Bool("summary", false, "print the headline summary")
		small     = flag.Bool("small", false, "use the reduced 3-ECU subnet instead of the full case study")
		specPath  = flag.String("spec", "", "load the specification from this JSON file instead of the built-in case study")
		dumpSpec  = flag.String("dump-spec", "", "write the built specification as JSON to this file and exit")
		storage   = flag.String("storage", "free", "pattern storage ablation: free, local, gateway")
		optimizer = flag.String("optimizer", "nsga2", "optimizer: nsga2 or random (ablation)")
		sbst      = flag.String("sbst", "off", "SBST alternative: off, add (BIST+SBST) or only")
		fd        = flag.Int("fd", 0, "future-architecture variant: CAN FD buses with this container payload (e.g. 64; 0 = classic CAN)")
		workers   = flag.Int("workers", runtime.GOMAXPROCS(0), "parallel evaluation goroutines for MOEA candidate evaluation and (with -measured) fault-simulation grading; results are identical for any value (default: all cores)")
		measured  = flag.Bool("measured", false, "characterize BIST profiles on a synthetic CUT with real fault simulation instead of the embedded Table I")
		csvPath   = flag.String("csv", "", "write the Pareto front as CSV to this file")
		epsilon   = flag.String("epsilon", "", "comma-separated ε-archive box sizes per objective (cost,-quality,shutoff_ms)")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile of the exploration to this file")
		memProf   = flag.String("memprofile", "", "write a heap profile (taken after the exploration) to this file")

		robust  = flag.Bool("robust", false, "add the degraded-mode transfer score as a 4th objective (CAN error model, default -error-rate 1e-5)")
		errRate = flag.Float64("error-rate", 0, "CAN bit-error rate for the robustness objective; > 0 implies -robust")

		islands      = flag.Int("islands", 1, "NSGA-II populations coupled by ring migration (1 = classic single-population run)")
		migrateEvery = flag.Int("migrate-every", 10, "island migration period in generations (with -islands > 1)")
		migrants     = flag.Int("migrants", 4, "archive representatives exchanged per island per migration epoch (at least 1; with -islands > 1)")

		procs     = flag.Int("procs", 0, "shard the NSGA-II campaign's islands across this many worker processes, merging at migration-epoch boundaries (front byte-identical at any value)")
		maxEpochs = flag.Int("max-epochs", 0, "with -procs: stop after this many merged migration epochs and keep the checkpoint (0 = run to completion)")

		epochStep   = flag.Bool("epoch-step", false, "worker mode: advance the -island-shard island subset exactly one migration epoch from -resume (or bootstrap epoch 0), write -shard-out, exit")
		islandShard = flag.String("island-shard", "", "worker mode: contiguous island subset to step, as k/P (shard k of P, requires -epoch-step)")
		shardOut    = flag.String("shard-out", "", "worker mode: write the shard's partial island checkpoint to this file (requires -epoch-step)")

		checkpoint      = flag.String("checkpoint", "", "periodically write the NSGA-II campaign state to this file (atomically); SIGINT writes a final checkpoint before exiting")
		checkpointEvery = flag.Int("checkpoint-every", 10, "checkpoint period in generations (at least 1)")
		resumePath      = flag.String("resume", "", "resume the NSGA-II campaign from this checkpoint file (same spec, decoder, seed and budget flags required)")
		progress        = flag.Bool("progress", false, "stream one structured progress line per generation to stderr")
		progressAddr    = flag.String("progress-addr", "", "serve live run telemetry on this address: Prometheus text on /metrics, pprof on /debug/pprof")
		traceOut        = flag.String("trace-out", "", "stream per-stage trace events and periodic metric snapshots as JSONL to this file (flight recorder; inspect with cmd/obsdump)")
	)
	flag.Parse()
	if !*fig5 && !*fig6 && !*summary {
		*fig5, *fig6, *summary = true, true, true
	}
	if *errRate < 0 {
		return fmt.Errorf("-error-rate must be non-negative, got %g", *errRate)
	}
	if *errRate > 0 {
		*robust = true
	} else if *robust {
		*errRate = 1e-5
	}
	if *islands < 1 {
		return fmt.Errorf("-islands must be at least 1, got %d", *islands)
	}
	if (*islands > 1 || *procs > 0 || *epochStep) && *optimizer != "nsga2" {
		return fmt.Errorf("-islands, -procs and -epoch-step require -optimizer nsga2")
	}
	if *migrateEvery <= 0 {
		return fmt.Errorf("-migrate-every must be positive, got %d", *migrateEvery)
	}
	if *migrants < 1 {
		return fmt.Errorf("-migrants must be at least 1, got %d", *migrants)
	}
	if *checkpointEvery < 1 {
		return fmt.Errorf("-checkpoint-every must be at least 1, got %d", *checkpointEvery)
	}
	if *optimizer == "random" {
		checkpointing := *checkpoint != "" || *resumePath != ""
		flag.Visit(func(f *flag.Flag) { checkpointing = checkpointing || f.Name == "checkpoint-every" })
		if checkpointing {
			return fmt.Errorf("-checkpoint, -resume and -checkpoint-every require -optimizer nsga2 (random search does not checkpoint)")
		}
	}
	if *procs < 0 {
		return fmt.Errorf("-procs must be non-negative, got %d", *procs)
	}
	if *maxEpochs < 0 {
		return fmt.Errorf("-max-epochs must be non-negative, got %d", *maxEpochs)
	}
	if *maxEpochs > 0 && *procs == 0 {
		return fmt.Errorf("-max-epochs requires -procs")
	}
	if *maxEpochs > 0 && *checkpoint == "" {
		return fmt.Errorf("-max-epochs requires -checkpoint (the stop point is the checkpoint you resume from)")
	}
	if *epochStep != (*islandShard != "") {
		return fmt.Errorf("-epoch-step and -island-shard must be used together")
	}
	if *epochStep {
		if *shardOut == "" {
			return fmt.Errorf("-epoch-step requires -shard-out")
		}
		if *procs > 0 {
			return fmt.Errorf("-epoch-step (worker mode) conflicts with -procs (orchestrator mode)")
		}
	} else if *shardOut != "" {
		return fmt.Errorf("-shard-out requires -epoch-step")
	}

	// SIGINT/SIGTERM cancel the run context: the exploration stops at the
	// next generation (or fault-simulation batch) boundary, the final
	// checkpoint is written, and the partial front still goes out below.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// All stdout reporting goes through one buffered writer so every exit
	// path can flush it and surface write errors (a redirected-to-full-disk
	// run must not pretend it succeeded).
	out := bufio.NewWriter(os.Stdout)

	var spec *model.Specification
	if *specPath != "" {
		f, ferr := os.Open(*specPath)
		if ferr != nil {
			return ferr
		}
		spec, err = model.ReadJSON(f)
		f.Close()
	} else {
		spec, err = buildSpec(ctx, *small, *profiles, *sbst, *fd, *measured, *workers)
	}
	if err != nil {
		return err
	}
	if *dumpSpec != "" {
		f, ferr := os.Create(*dumpSpec)
		if ferr != nil {
			return ferr
		}
		if err := spec.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote specification to %s\n", *dumpSpec)
		return out.Flush()
	}
	var dec core.Decoder
	switch *decoder {
	case "greedy":
		gd, gerr := core.NewGreedyDecoder(spec)
		if gerr == nil {
			switch *storage {
			case "free":
			case "local":
				gd.StorageChoice = 1
			case "gateway":
				gd.StorageChoice = -1
			default:
				gerr = fmt.Errorf("unknown storage mode %q", *storage)
			}
		}
		dec, err = gd, gerr
	case "sat":
		if *storage != "free" {
			return fmt.Errorf("-storage ablation requires the greedy decoder")
		}
		dec, err = core.NewSATDecoder(spec, 0)
	default:
		err = fmt.Errorf("unknown decoder %q", *decoder)
	}
	if err != nil {
		return err
	}

	gens := *evals / *pop
	if gens < 1 {
		gens = 1
	}
	var eps []float64
	if *epsilon != "" {
		if eps, err = parseEpsilon(*epsilon); err != nil {
			return err
		}
	}

	// Observability. The registry/tracer/recorder trio only exists when
	// something consumes it (-progress-addr or -trace-out); plain runs
	// keep nil handles and the zero-cost no-op fast path everywhere.
	// Event recording (the flight-recorder ring buffers) is enabled only
	// with -trace-out; a bare -progress-addr still meters stage latency
	// histograms but buffers no events.
	var (
		reg    *obs.Registry
		tracer *obs.Tracer
	)
	if *progressAddr != "" || *traceOut != "" {
		reg = obs.NewRegistry()
		tracer = obs.NewTracer(reg, obs.TracerConfig{Record: *traceOut != ""})
	}
	if *traceOut != "" {
		rec, rerr := obs.NewRecorder(*traceOut, tracer, reg, 0)
		if rerr != nil {
			return fmt.Errorf("trace-out: %w", rerr)
		}
		defer func() {
			if cerr := rec.Close(); cerr != nil && err == nil {
				err = fmt.Errorf("trace-out: %w", cerr)
			}
		}()
	}

	ex := core.NewExplorer(spec, dec)
	ex.Obs = tracer
	if *robust {
		ex.Robust = objective.RobustConfig{ErrorRate: *errRate}
	}
	mopt := moea.Options{PopSize: *pop, Generations: gens, Seed: *seed, Workers: *workers, ArchiveEpsilon: eps,
		Islands: *islands, MigrateEvery: *migrateEvery, Migrants: *migrants}
	if *epochStep {
		// Worker mode: step one shard one epoch, write it, say nothing.
		return runEpochStep(ctx, ex, mopt, *islandShard, *resumePath, *shardOut)
	}
	name := specName(*small)
	if *specPath != "" {
		name = *specPath
	}
	robustNote := ""
	if *robust {
		robustNote = fmt.Sprintf(", robust@BER=%g", *errRate)
	}
	if *islands > 1 {
		robustNote += fmt.Sprintf(", islands=%d/migrate=%d", *islands, *migrateEvery)
	}
	if *procs > 0 {
		robustNote += fmt.Sprintf(", procs=%d", *procs)
	}
	evalBudget := (*pop + *pop*gens) * *islands // every island runs its own population
	fmt.Fprintf(out, "exploring %s with %s decoder (%s, storage=%s, sbst=%s%s): pop=%d generations=%d (~%d evaluations)\n\n",
		name, *decoder, *optimizer, *storage, *sbst, robustNote, *pop, gens, evalBudget)
	if err := out.Flush(); err != nil {
		return err
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		defer f.Close()
		defer pprof.StopCPUProfile()
	}

	if *checkpoint != "" {
		mopt.OnCheckpoint = func(cp *moea.IslandCheckpoint) error { return cp.WriteFile(*checkpoint) }
		mopt.CheckpointEvery = *checkpointEvery
	}
	if *resumePath != "" {
		if mopt.Resume, err = moea.ReadIslandCheckpointFile(*resumePath); err != nil {
			return err
		}
	}
	tel := newTelemetry(reg)
	if *progress {
		ex.OnProgress = tel.observe(func(p core.Progress) { tel.printLine(os.Stderr, p) })
	}
	if reg != nil && ex.OnProgress == nil {
		// Something scrapes or records telemetry: keep the sample fresh
		// even without -progress.
		ex.OnProgress = tel.observe(nil)
	}
	if *progressAddr != "" {
		srv, serr := obs.Serve(*progressAddr, obs.NewMux(reg))
		if serr != nil {
			return fmt.Errorf("progress endpoint: %w", serr)
		}
		fmt.Fprintf(os.Stderr, "eedse: progress endpoint on http://%s/metrics\n", srv.Addr())
		defer srv.Shutdown(2 * time.Second)
	}

	// workerArgs reconstructs the campaign flags every epoch-step worker
	// must share with the orchestrator. The spec-construction flags are
	// passed through rather than a serialized spec: both builders are
	// deterministic, so each worker rebuilds the identical specification.
	var workerArgs []string
	if *procs > 0 {
		workerArgs = []string{
			"-evals", strconv.Itoa(*evals),
			"-pop", strconv.Itoa(*pop),
			"-seed", strconv.FormatInt(*seed, 10),
			"-profiles", strconv.Itoa(*profiles),
			"-decoder", *decoder,
			"-storage", *storage,
			"-sbst", *sbst,
			"-fd", strconv.Itoa(*fd),
			"-workers", strconv.Itoa(*workers),
			"-islands", strconv.Itoa(*islands),
			"-migrate-every", strconv.Itoa(*migrateEvery),
			"-migrants", strconv.Itoa(*migrants),
		}
		if *small {
			workerArgs = append(workerArgs, "-small")
		}
		if *specPath != "" {
			workerArgs = append(workerArgs, "-spec", *specPath)
		}
		if *measured {
			workerArgs = append(workerArgs, "-measured")
		}
		if *epsilon != "" {
			workerArgs = append(workerArgs, "-epsilon", *epsilon)
		}
		if *robust {
			workerArgs = append(workerArgs, "-robust", "-error-rate", strconv.FormatFloat(*errRate, 'g', -1, 64))
		}
	}

	var res *core.Result
	var runErr error
	switch *optimizer {
	case "nsga2":
		if *procs > 0 {
			res, runErr = runSharded(ctx, ex, mopt, *checkpoint, *procs, *maxEpochs, workerArgs, *progress, tracer)
		} else {
			res, runErr = ex.RunContext(ctx, mopt)
		}
	case "random":
		res, runErr = ex.RunRandom(ctx, moea.RandomOptions{Evals: *pop + *pop*gens, Seed: *seed, Workers: *workers})
	default:
		runErr = fmt.Errorf("unknown optimizer %q", *optimizer)
	}
	interrupted := runErr != nil && errors.Is(runErr, context.Canceled)
	if runErr != nil && !interrupted {
		return runErr
	}
	if res == nil {
		return runErr
	}
	if interrupted {
		fmt.Fprintln(os.Stderr, "eedse: interrupted — emitting the partial Pareto front")
		if *checkpoint != "" {
			fmt.Fprintf(os.Stderr, "eedse: checkpoint written to %s (continue with -resume %s)\n", *checkpoint, *checkpoint)
		}
	}

	if *memProf != "" {
		f, ferr := os.Create(*memProf)
		if ferr != nil {
			return ferr
		}
		runtime.GC() // capture the steady state, not transient garbage
		if err := pprof.WriteHeapProfile(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			return err
		}
		if err := report.WriteCSV(f, res); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %d solutions to %s\n\n", len(res.Solutions), *csvPath)
	}
	if *summary {
		report.WriteSummary(out, res)
		report.WriteFrontStats(out, res)
		fmt.Fprintln(out)
	}
	if *fig5 {
		report.WriteFig5(out, res, *threshold*1000)
		fmt.Fprintln(out)
	}
	if *fig6 {
		report.WriteFig6(out, report.PickFig6(res, 7))
	}
	if err := out.Flush(); err != nil {
		return err
	}
	if interrupted {
		return errInterrupted
	}
	return nil
}

// runEpochStep is the -epoch-step worker body: advance one contiguous
// island shard exactly one migration epoch from the full campaign
// checkpoint (or bootstrap epoch 0) and write the shard's partial
// island checkpoint. It prints nothing on success — the orchestrator
// owns all reporting.
func runEpochStep(ctx context.Context, ex *core.Explorer, mopt moea.Options, shardSpec, resumePath, outPath string) error {
	k, p, err := parseShardSpec(shardSpec)
	if err != nil {
		return err
	}
	if p > mopt.Islands {
		return fmt.Errorf("-island-shard %s: %d shards for only %d islands", shardSpec, p, mopt.Islands)
	}
	first, count := moea.ShardRange(mopt.Islands, p, k)
	var full *moea.IslandCheckpoint
	if resumePath != "" {
		if full, err = moea.ReadIslandCheckpointFile(resumePath); err != nil {
			return err
		}
	}
	part, err := ex.EpochStep(ctx, mopt, full, first, count)
	if err != nil {
		return err
	}
	return part.WriteFile(outPath)
}

// parseShardSpec parses the -island-shard "k/P" argument.
func parseShardSpec(s string) (k, p int, err error) {
	bad := func() (int, int, error) {
		return 0, 0, fmt.Errorf("-island-shard must be k/P with 0 <= k < P, got %q", s)
	}
	i := strings.IndexByte(s, '/')
	if i <= 0 {
		return bad()
	}
	k, err = strconv.Atoi(s[:i])
	if err != nil {
		return bad()
	}
	p, err = strconv.Atoi(s[i+1:])
	if err != nil || p < 1 || k < 0 || k >= p {
		return bad()
	}
	return k, p, nil
}

// runSharded is the -procs orchestrator body: drive the campaign
// (resuming from mopt.Resume, if set) through internal/shard, spawning
// this same binary in -epoch-step mode, then rebuild the merged result
// from the final full checkpoint.
func runSharded(ctx context.Context, ex *core.Explorer, mopt moea.Options, checkpointPath string, procs, maxEpochs int, args []string, progress bool, tracer *obs.Tracer) (*core.Result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cfg := shard.Config{
		Binary:         exe,
		Args:           args,
		Procs:          procs,
		Islands:        mopt.Islands,
		MigrateEvery:   mopt.MigrateEvery,
		Migrants:       mopt.Migrants,
		CheckpointPath: checkpointPath,
		Resume:         mopt.Resume,
		MaxEpochs:      maxEpochs,
		Stderr:         os.Stderr,
		Obs:            tracer,
	}
	cfg, cleanup, err := shard.Bootstrap(cfg)
	if err != nil {
		return nil, err
	}
	defer cleanup()
	if cfg.CheckpointPath == "" {
		// No -checkpoint: keep the recovery point in the (temporary)
		// work directory so the epoch loop still has one.
		cfg.CheckpointPath = filepath.Join(cfg.WorkDir, "campaign-checkpoint.json")
	}
	if progress {
		cfg.OnEpoch = func(ep shard.Epoch) {
			fmt.Fprintf(os.Stderr, "eedse: epoch=%d gen=%d/%d evals=%d procs=%d elapsed=%s\n",
				ep.Index, ep.Boundary, ep.Generations, ep.Evaluations, ep.Procs, ep.Elapsed.Round(10_000_000))
		}
	}
	final, done, runErr := shard.Run(ctx, cfg)
	if runErr != nil && !errors.Is(runErr, context.Canceled) {
		return nil, runErr
	}
	if final == nil {
		// Cancelled before the first epoch merged: nothing to report.
		return nil, runErr
	}
	if !done && runErr == nil {
		fmt.Fprintf(os.Stderr, "eedse: stopped after %d epoch(s) at -max-epochs; continue with -resume %s\n",
			maxEpochs, checkpointPath)
	}
	// Rebuild the merged front from the checkpoint. Collection must not
	// be cancelled by the same SIGINT that stopped the campaign — the
	// partial front is the point of a graceful stop.
	res, err := ex.CollectIslands(context.Background(), mopt, final)
	if err != nil {
		return nil, err
	}
	return res, runErr
}

func buildSpec(ctx context.Context, small bool, profiles int, sbst string, fd int, measured bool, workers int) (*model.Specification, error) {
	if small {
		if sbst != "off" || fd != 0 || measured {
			return nil, fmt.Errorf("-sbst/-fd/-measured require the full case study")
		}
		return casestudy.Small(3, profiles, 7)
	}
	opts := casestudy.Options{ProfilesPerECU: profiles, FDPayload: fd}
	if measured {
		opts.Measured = &casestudy.MeasuredOptions{Workers: workers, Context: ctx}
	}
	switch sbst {
	case "off":
	case "add":
		opts.IncludeSBST = true
	case "only":
		opts.IncludeSBST = true
		opts.ExcludeBIST = true
	default:
		return nil, fmt.Errorf("unknown sbst mode %q", sbst)
	}
	return casestudy.Build(opts)
}

func parseEpsilon(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil || v < 0 {
			return nil, fmt.Errorf("bad epsilon %q", part)
		}
		out = append(out, v)
	}
	return out, nil
}

func specName(small bool) string {
	if small {
		return "reduced 3-ECU subnet"
	}
	return "DATE'14 case study (15 ECUs, 3 CAN buses)"
}

// telemetry holds the latest explorer progress sample behind the
// pull-style dse_* registry series served on /metrics.
type telemetry struct {
	mu   sync.Mutex
	last core.Progress
	seen bool
}

func newTelemetry(reg *obs.Registry) *telemetry {
	t := &telemetry{}
	if reg == nil {
		return t
	}
	sample := func(f func(core.Progress) float64) func() float64 {
		return func() float64 {
			t.mu.Lock()
			defer t.mu.Unlock()
			if !t.seen {
				return 0
			}
			return f(t.last)
		}
	}
	reg.GaugeFunc("dse_generation", "current MOEA generation",
		sample(func(p core.Progress) float64 { return float64(p.Generation) }))
	reg.GaugeFunc("dse_generations", "configured generation budget",
		sample(func(p core.Progress) float64 { return float64(p.Generations) }))
	reg.CounterFunc("dse_evaluations_total", "implementations evaluated",
		sample(func(p core.Progress) float64 { return float64(p.Evaluations) }))
	reg.GaugeFunc("dse_evals_per_sec", "evaluation throughput over the run so far",
		sample(func(p core.Progress) float64 { return p.EvalsPerSec }))
	reg.GaugeFunc("dse_archive_size", "non-dominated archive size",
		sample(func(p core.Progress) float64 { return float64(p.ArchiveSize) }))
	reg.GaugeFunc("dse_hypervolume", "archive hypervolume indicator",
		sample(func(p core.Progress) float64 { return p.Hypervolume }))
	reg.CounterFunc("dse_decode_failures_total", "genotypes the decoder rejected",
		sample(func(p core.Progress) float64 { return float64(p.DecodeFailures) }))
	reg.CounterFunc("dse_solver_conflicts_total", "SAT decoder conflicts",
		sample(func(p core.Progress) float64 { return float64(p.SolverConflicts) }))
	reg.CounterFunc("dse_solver_propagations_total", "SAT decoder propagations",
		sample(func(p core.Progress) float64 { return float64(p.SolverPropagations) }))
	reg.GaugeFunc("dse_elapsed_seconds", "wall-clock time since the run started",
		sample(func(p core.Progress) float64 { return p.Elapsed.Seconds() }))
	return t
}

// observe wraps a progress consumer so every sample also updates the
// registry series. next may be nil.
func (t *telemetry) observe(next func(core.Progress)) func(core.Progress) {
	return func(p core.Progress) {
		t.mu.Lock()
		t.last = p
		t.seen = true
		t.mu.Unlock()
		if next != nil {
			next(p)
		}
	}
}

// printLine writes one structured key=value progress line.
func (t *telemetry) printLine(w *os.File, p core.Progress) {
	total := ""
	if p.Generations > 0 {
		total = fmt.Sprintf("/%d", p.Generations)
	}
	fmt.Fprintf(w, "eedse: progress gen=%d%s evals=%d evals_s=%.0f archive=%d hv=%.4g decode_fail=%d conflicts=%d props=%d elapsed=%s\n",
		p.Generation, total, p.Evaluations, p.EvalsPerSec, p.ArchiveSize, p.Hypervolume,
		p.DecodeFailures, p.SolverConflicts, p.SolverPropagations, p.Elapsed.Round(10_000_000)) // 10 ms
}
