package core

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/model"
	"repro/internal/moea"
	"repro/internal/objective"
	"repro/internal/obs"
)

// Solution is one evaluated implementation in the result set.
type Solution struct {
	Impl       *model.Implementation
	Objectives objective.Vector
}

// Result is the outcome of an exploration run.
type Result struct {
	// Solutions is the Pareto-optimal set over (cost, −quality,
	// shut-off), sorted by ascending cost.
	Solutions []Solution
	// Evaluations counts decoded and evaluated implementations.
	Evaluations int
	// Elapsed is the wall-clock duration of the run.
	Elapsed time.Duration
	// DecodeFailures counts genotypes the decoder could not turn into an
	// implementation (zero for the construct-by-design decoders).
	DecodeFailures int
}

// Explorer couples a decoder with the MOEA.
type Explorer struct {
	Spec    *model.Specification
	Decoder Decoder
	// Verify re-checks every decoded implementation against the model's
	// structural rules and surfaces the first violation as an error from
	// Run (cancelling the remaining workers). Enable in tests; costs
	// ~30 % throughput.
	Verify bool
	// Robust, when its ErrorRate is positive, adds the degraded-mode
	// transfer score as a fourth minimized objective (see
	// objective.EvaluateRobust). The zero value keeps the classic
	// three-objective exploration bit-identical.
	Robust objective.RobustConfig
	// Obs, when non-nil, times decode and objective evaluation per
	// worker and threads through to the optimizer's generation and
	// migration spans. Purely observational — it never touches RNG state
	// or evaluation order; nil costs one check per evaluation.
	Obs *obs.Tracer
	// OnProgress, when non-nil, receives a telemetry sample per
	// generation (NSGA-II) or 256-evaluation chunk (random search) on the
	// optimizer goroutine; it replaces the optimizer options' own
	// OnProgress for the run.
	OnProgress func(Progress)

	decodeFailures atomic.Int64

	// penalty caches the finite all-worst objective vector assigned to
	// decode failures (see objective.WorstCase).
	penaltyOnce sync.Once
	penalty     moea.Objectives
	hvRef       moea.Objectives

	// mu guards the first verification failure and the cancel hook that
	// stops the remaining evaluation workers when one occurs.
	mu        sync.Mutex
	verifyErr error
	cancelRun context.CancelFunc
}

// NewExplorer returns an explorer over the specification.
func NewExplorer(spec *model.Specification, dec Decoder) *Explorer {
	return &Explorer{Spec: spec, Decoder: dec}
}

// GenotypeLen implements moea.Problem.
func (e *Explorer) GenotypeLen() int { return e.Decoder.GenotypeLen() }

// Evaluate implements moea.Problem: decode on the worker's pinned
// decoder state when the decoder supports it (WorkerDecoder), verify
// (optionally), and score. Decoding is a pure function of the genotype,
// so the result never depends on the worker index — the property the
// byte-identical-fronts invariant rests on. Decode failures are
// punished with a finite all-worst objective vector
// (objective.WorstCase) so the MOEA steers away from them without
// leaking ±Inf into crowding-distance or indicator normalization. A
// borrowed implementation gets no payload: the decoder overwrites it
// with its next decode, and collect decodes the archive's payload-less
// members again instead. Evaluate is safe for concurrent use when the
// decoder is (both built-in decoders are).
func (e *Explorer) Evaluate(worker int, genotype []float64) (moea.Objectives, any) {
	sp := e.Obs.StartW(worker, obs.StageDecode)
	var (
		x   *model.Implementation
		err error
	)
	if wd, ok := e.Decoder.(WorkerDecoder); ok {
		x, err = wd.DecodeWorker(worker, genotype)
	} else {
		x, err = e.Decoder.Decode(genotype)
	}
	sp.End()
	if err != nil {
		e.decodeFailures.Add(1)
		return e.penaltyObjectives(), nil
	}
	if e.Verify {
		if errs := x.Check(); len(errs) != 0 {
			// A panic here would tear down the whole worker pool (and the
			// process) on one bad decode; record the first failure, cancel
			// the run, and let Run surface it as an error instead.
			e.failRun(fmt.Errorf("core: decoder produced infeasible implementation: %v", errs))
			return e.penaltyObjectives(), nil
		}
	}
	sp = e.Obs.StartW(worker, obs.StageObjective)
	v := objective.EvaluateRobust(x, e.Robust)
	sp.End()
	if x.Borrowed() {
		return moea.Objectives(v.Minimized()), nil
	}
	return moea.Objectives(v.Minimized()), Solution{Impl: x, Objectives: v}
}

// penaltyObjectives returns (a copy of) the finite worst-case penalty
// vector, computing it from the specification on first use.
func (e *Explorer) penaltyObjectives() moea.Objectives {
	e.initPenalty()
	return append(moea.Objectives(nil), e.penalty...)
}

// initPenalty derives the penalty and hypervolume reference vectors
// from the specification once.
func (e *Explorer) initPenalty() {
	e.penaltyOnce.Do(func() {
		w := objective.WorstCaseRobust(e.Spec, e.Robust)
		e.penalty = moea.Objectives(w.Minimized())
		// The hypervolume reference must strictly dominate-be-dominated by
		// every counted point, including the penalty corner.
		e.hvRef = make(moea.Objectives, len(e.penalty))
		for k, v := range e.penalty {
			e.hvRef[k] = v + 1 + 0.01*math.Abs(v)
		}
	})
}

// failRun records the first fatal evaluation failure and cancels the
// in-flight optimizer run (if any).
func (e *Explorer) failRun(err error) {
	e.mu.Lock()
	if e.verifyErr == nil {
		e.verifyErr = err
		if e.cancelRun != nil {
			e.cancelRun()
		}
	}
	e.mu.Unlock()
}

// takeRunError returns the recorded fatal failure of the current run.
func (e *Explorer) takeRunError() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.verifyErr
}

// Progress is one explorer telemetry sample (see Explorer.OnProgress).
type Progress struct {
	// Generation is the 0-based generation (or chunk) just completed;
	// Generations the configured total (0 for random search).
	Generation  int
	Generations int
	// Evaluations counts evaluated genotypes cumulatively across
	// resumes; EvalsPerSec is the throughput of this process.
	Evaluations int
	EvalsPerSec float64
	// ArchiveSize is the current Pareto-archive cardinality and
	// Hypervolume its dominated volume against the specification's
	// worst-case reference point.
	ArchiveSize int
	Hypervolume float64
	// DecodeFailures counts genotypes the decoder rejected so far.
	DecodeFailures int64
	// SolverConflicts/SolverPropagations are the cumulative
	// pseudo-Boolean solver counters of the SAT decoder (0 for decoders
	// without a solver).
	SolverConflicts    int64
	SolverPropagations int64
	// Elapsed is the wall-clock time since the run (or resume) started.
	Elapsed time.Duration
}

// SolverStatsReporter is implemented by decoders that track cumulative
// pseudo-Boolean solver work (the SAT decoder); the explorer includes
// the counters in telemetry when available.
type SolverStatsReporter interface {
	SolverStats() (conflicts, propagations int64)
}

// Run executes the exploration with the given MOEA options.
func (e *Explorer) Run(opt moea.Options) (*Result, error) {
	return e.RunContext(context.Background(), opt)
}

// RunContext executes the NSGA-II exploration (opt.Islands populations,
// one by default; see moea.Run) with cancellation. Checkpointing is
// opt.OnCheckpoint/CheckpointEvery and resuming opt.Resume; telemetry
// goes to Explorer.OnProgress. For a fixed (seed, islands, migration)
// tuple the front is byte-identical at any worker count, and a resumed
// campaign matches the uninterrupted one. On context cancellation the
// partial Result collected so far is returned together with ctx.Err();
// the final checkpoint (if configured) is written before returning, and
// no worker goroutines outlive the call.
func (e *Explorer) RunContext(ctx context.Context, opt moea.Options) (*Result, error) {
	runCtx, cancel, start := e.beginRun(ctx)
	defer cancel()
	defer e.endRun()

	opt.Obs = e.Obs
	if e.OnProgress != nil {
		opt.OnProgress = e.progress
	}
	mres, err := moea.Run(runCtx, e, opt)
	return e.finishRun(mres, err, start)
}

// EpochStep advances the contiguous island subset [first, first+count)
// of an island campaign by exactly one migration epoch — the worker
// unit of the multi-process orchestrator (internal/shard). full is the
// campaign checkpoint to step from (nil bootstraps epoch 0); the
// returned partial checkpoint holds the post-epoch state of those
// islands, objective vectors included, which is what the orchestrator
// migrates on. See moea.EpochStep.
func (e *Explorer) EpochStep(ctx context.Context, opt moea.Options, full *moea.IslandCheckpoint, first, count int) (*moea.IslandCheckpoint, error) {
	runCtx, cancel, _ := e.beginRun(ctx)
	defer cancel()
	defer e.endRun()

	opt.Obs = e.Obs
	part, err := moea.EpochStep(runCtx, e, opt, full, first, count)
	if verr := e.takeRunError(); verr != nil {
		return nil, verr
	}
	return part, err
}

// CollectIslands turns a full island-campaign checkpoint into the
// exploration Result without advancing any island: the per-island
// states are restored (evaluating nothing) and the archives fold in
// island order — the same merge moea.Run performs, so a completed
// multi-process campaign reports a byte-identical front, and a
// mid-campaign checkpoint yields the partial front. The merged archive
// members are decoded again to report their implementations (collect).
func (e *Explorer) CollectIslands(ctx context.Context, opt moea.Options, cp *moea.IslandCheckpoint) (*Result, error) {
	runCtx, cancel, start := e.beginRun(ctx)
	defer cancel()
	defer e.endRun()

	mres, err := moea.MergeIslandCheckpoint(runCtx, e, opt, cp)
	return e.finishRun(mres, err, start)
}

// RunRandom explores with uniform random sampling instead of NSGA-II —
// the optimizer ablation baseline (DESIGN.md A2 family). Cancellation
// and telemetry behave as in RunContext; random search does not
// checkpoint.
func (e *Explorer) RunRandom(ctx context.Context, opt moea.RandomOptions) (*Result, error) {
	runCtx, cancel, start := e.beginRun(ctx)
	defer cancel()
	defer e.endRun()

	if e.OnProgress != nil {
		opt.OnProgress = e.progress
	}
	mres, err := moea.RandomSearch(runCtx, e, opt)
	return e.finishRun(mres, err, start)
}

// beginRun resets per-run state and installs the cancel hook used to
// stop workers on a fatal evaluation failure.
func (e *Explorer) beginRun(ctx context.Context) (context.Context, context.CancelFunc, time.Time) {
	if ctx == nil {
		ctx = context.Background()
	}
	e.decodeFailures.Store(0)
	runCtx, cancel := context.WithCancel(ctx)
	e.mu.Lock()
	e.verifyErr = nil
	e.cancelRun = cancel
	e.mu.Unlock()
	return runCtx, cancel, time.Now()
}

// endRun detaches the cancel hook installed by beginRun.
func (e *Explorer) endRun() {
	e.mu.Lock()
	e.cancelRun = nil
	e.mu.Unlock()
}

// finishRun translates an optimizer outcome into the exploration
// Result: fatal evaluation failures win over cancellation, and a
// cancelled run still yields the partial result alongside the error.
func (e *Explorer) finishRun(mres *moea.Result, err error, start time.Time) (*Result, error) {
	if verr := e.takeRunError(); verr != nil {
		return nil, verr
	}
	if mres == nil {
		return nil, err
	}
	return e.collect(mres, start), err
}

// progress forwards an optimizer telemetry sample to OnProgress,
// enriched with the explorer-level counters: throughput, hypervolume
// against the worst-case reference, decode failures and solver work.
func (e *Explorer) progress(mp moea.Progress) {
	pr := Progress{
		Generation:     mp.Generation,
		Generations:    mp.Generations,
		Evaluations:    mp.Evaluations,
		ArchiveSize:    len(mp.Archive),
		DecodeFailures: e.decodeFailures.Load(),
		Elapsed:        mp.Elapsed,
	}
	if mp.Elapsed > 0 {
		pr.EvalsPerSec = float64(mp.RunEvaluations) / mp.Elapsed.Seconds()
	}
	if sr, ok := e.Decoder.(SolverStatsReporter); ok {
		pr.SolverConflicts, pr.SolverPropagations = sr.SolverStats()
	}
	e.initPenalty()
	// Hypervolume3D only handles three-dimensional points; a robust run
	// carries four objectives, so the telemetry indicator is the volume of
	// the (cost, −quality, shut-off) projection.
	front := make([]moea.Objectives, 0, len(mp.Archive))
	for _, ind := range mp.Archive {
		obj := ind.Objectives
		if len(obj) > 3 {
			obj = obj[:3]
		}
		front = append(front, obj)
	}
	ref := e.hvRef
	if len(ref) > 3 {
		ref = ref[:3]
	}
	pr.Hypervolume = moea.Hypervolume3D(front, ref)
	e.OnProgress(pr)
}

// collect turns an optimizer result into the exploration Result: it
// extracts the Solution payloads from the archive, sorts them by
// ascending cost, and stamps the throughput accounting. Both entry
// points (NSGA-II and random search) report through here so evaluation
// counts and timings mean the same thing everywhere. An archive member
// without a payload (its implementation was borrowed, or its decode
// failed) is decoded again with Decode and scored: both are pure
// functions of the genotype, so the Solution is the one its evaluation
// saw, and a failed decode fails again and stays out.
func (e *Explorer) collect(mres *moea.Result, start time.Time) *Result {
	res := &Result{
		Evaluations:    mres.Evaluations,
		DecodeFailures: int(e.decodeFailures.Load()),
	}
	for _, ind := range mres.Archive {
		sol, ok := ind.Payload.(Solution)
		if !ok {
			x, err := e.Decoder.Decode(ind.Genotype)
			if err != nil {
				continue
			}
			sol = Solution{Impl: x, Objectives: objective.EvaluateRobust(x, e.Robust)}
		}
		res.Solutions = append(res.Solutions, sol)
	}
	res.Elapsed = time.Since(start)
	sort.Slice(res.Solutions, func(i, j int) bool {
		return res.Solutions[i].Objectives.CostTotal < res.Solutions[j].Objectives.CostTotal
	})
	return res
}

// EvalsPerSec returns the evaluation throughput of the run, or 0 for an
// empty or unmeasured run.
func (r *Result) EvalsPerSec() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Evaluations) / r.Elapsed.Seconds()
}

// SplitByShutOff partitions the solutions at the given shut-off
// threshold in milliseconds — the ●/▲ marker split of the paper's
// Fig. 5 (20 s).
func (r *Result) SplitByShutOff(thresholdMS float64) (fast, slow []Solution) {
	for _, s := range r.Solutions {
		if s.Objectives.ShutOffMS <= thresholdMS {
			fast = append(fast, s)
		} else {
			slow = append(slow, s)
		}
	}
	return fast, slow
}

// BestQualityWithin returns the highest-test-quality solution whose
// cost stays within (1+maxCostOverhead)·baselineCost — the paper's
// headline query ("80.7 % test quality for <3.7 % extra cost").
func (r *Result) BestQualityWithin(baselineCost, maxCostOverhead float64) (Solution, bool) {
	var best Solution
	found := false
	limit := baselineCost * (1 + maxCostOverhead)
	for _, s := range r.Solutions {
		if s.Objectives.CostTotal <= limit && (!found || s.Objectives.TestQuality > best.Objectives.TestQuality) {
			best = s
			found = true
		}
	}
	return best, found
}

// BaselineCost returns the monetary cost of the cheapest exploration
// solution without any BIST, or, if the archive holds none, the
// cheapest solution's hardware cost (its BIST increment removed).
func (r *Result) BaselineCost() float64 {
	best := math.Inf(1)
	for _, s := range r.Solutions {
		if s.Objectives.TestQuality == 0 && s.Objectives.CostTotal < best {
			best = s.Objectives.CostTotal
		}
	}
	if !math.IsInf(best, 1) {
		return best
	}
	for _, s := range r.Solutions {
		c := objective.MonetaryCosts(s.Impl)
		hw := c.Hardware
		if hw < best {
			best = hw
		}
	}
	return best
}

// MemorySplit reports, for one solution, the diagnostic memory stored
// at the gateway versus distributed into the ECUs — the quantities of
// the paper's Fig. 6.
type MemorySplit struct {
	GatewayBytes     int64
	DistributedBytes int64
	ShutOffMS        float64
	CostTotal        float64
	TestQuality      float64
}

// MemorySplitOf computes the Fig. 6 quantities of a solution. Gateway
// entries of the same profile are stored once (the shared-pattern model
// of Section III-D), distributed entries once per ECU.
func MemorySplitOf(s Solution) MemorySplit {
	ms := MemorySplit{
		ShutOffMS:   s.Objectives.ShutOffMS,
		CostTotal:   s.Objectives.CostTotal,
		TestQuality: s.Objectives.TestQuality,
	}
	b := s.Impl.Binding
	ix := s.Impl.Index()
	gwShared := make(map[int]int64)
	for tp := b.Next(0); tp >= 0; tp = b.Next(tp + 1) {
		t, r := ix.Tasks[tp], b.At(tp)
		if t.Kind != model.KindBISTData {
			continue
		}
		if r == ix.Gateway {
			gwShared[t.Profile] = t.MemBytes
		} else {
			ms.DistributedBytes += t.MemBytes
		}
	}
	for _, bytes := range gwShared {
		ms.GatewayBytes += bytes
	}
	return ms
}
