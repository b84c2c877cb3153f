package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/casestudy"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/moea"
	"repro/internal/objective"
	"repro/internal/obs"
	"repro/internal/pbsat"
)

// dseKind is one DSE workload: the full case study (36 profiles per
// ECU) explored by NSGA-II with nproc evaluation workers. A run is a
// sequence of fixed-budget campaigns, so every campaign's front is a
// pure function of its seed and only the number of campaigns depends on
// speed.
type dseKind struct {
	name string
	sat  bool
	pop  int
	// gens is the generation budget of one campaign.
	gens int
}

var (
	// dse-greedy is the default eedse path: encode and pbsat are
	// bypassed, so moea's serial part and objective carry most weight.
	dseGreedy = dseKind{name: "dse-greedy", pop: 128, gens: 20}
	// dse-sat is the paper's SAT decoding at paper scale: pbsat solving
	// is nearly all the work and moea is negligible.
	dseSAT = dseKind{name: "dse-sat", sat: true, pop: 16, gens: 10}
)

// dseSystem is the system under test of a DSE run.
type dseSystem struct {
	spec *model.Specification
	dec  core.Decoder
	sat  *core.SATDecoder // nil for the greedy decoder
}

// buildDSE constructs the specification and decoder back to back for
// the set-up budget and keeps the last; it returns the median times of
// the two steps.
func buildDSE(k dseKind) (*dseSystem, time.Duration, time.Duration, int, error) {
	var sys *dseSystem
	var specT, decT durs
	for start := time.Now(); len(specT) == 0 || time.Since(start) < setupBudget; {
		t0 := time.Now()
		spec, err := casestudy.Build(casestudy.Options{})
		if err != nil {
			return nil, 0, 0, 0, fmt.Errorf("casestudy.Build: %w", err)
		}
		t1 := time.Now()
		s := &dseSystem{spec: spec}
		if k.sat {
			s.sat, err = core.NewSATDecoder(spec, 0)
			s.dec = s.sat
		} else {
			s.dec, err = core.NewGreedyDecoder(spec)
		}
		if err != nil {
			return nil, 0, 0, 0, fmt.Errorf("build decoder: %w", err)
		}
		t2 := time.Now()
		specT = append(specT, t1.Sub(t0))
		decT = append(decT, t2.Sub(t1))
		sys = s
	}
	return sys, time.Duration(median(specT.in(1))), time.Duration(median(decT.in(1))), len(specT), nil
}

// campaign is one fixed-budget Explorer.Run.
type campaign struct {
	res   *core.Result
	wall  time.Duration
	probe *probe
	// gens holds the wall time between consecutive OnGeneration calls:
	// one NSGA-II generation each. The first call also covers the initial
	// population, so generation 0 is not among them.
	gens durs
	// Traced only: the summed decode spans of generations ≥ 1, and the
	// generations' wall time outside them — the optimizer's own serial
	// work (variation, sorting, crowding, archive).
	spans, moeaSelf time.Duration
	// conflicts and propagations are the SAT decoder's counter deltas
	// over this campaign alone (0 for the greedy decoder).
	conflicts, propagations int64
}

func campaignSeed(seed uint64, i int) int64 {
	return int64(splitmix64(seed^uint64(i+1)*0xD6E8FEB86659FD93) >> 1)
}

// runCampaign explores with the decoder behind a probe and, when set,
// the program's tracer.
func runCampaign(sys *dseSystem, k dseKind, gens int, seed int64, tr *obs.Tracer, traced bool) (*campaign, error) {
	pr := newProbe(sys.dec, runtime.GOMAXPROCS(0), traced)
	ex := core.NewExplorer(sys.spec, pr)
	ex.Obs = tr
	c := &campaign{probe: pr}
	var last time.Time
	opt := moea.Options{
		PopSize: k.pop, Generations: gens, Seed: seed, Workers: runtime.GOMAXPROCS(0),
		OnGeneration: func(gen int, _ []*moea.Individual) {
			now := time.Now()
			sp := pr.span()
			if gen > 0 {
				c.gens = append(c.gens, now.Sub(last))
				c.spans += sp
				c.moeaSelf += now.Sub(last) - sp
			}
			last = now
			pr.gen.Add(1)
		},
	}
	var conf0, prop0 int64
	if sys.sat != nil {
		conf0, prop0 = sys.sat.SolverStats()
	}
	t0 := time.Now()
	res, err := ex.Run(opt)
	c.wall = time.Since(t0)
	if err != nil {
		return nil, fmt.Errorf("Explorer.Run: %w", err)
	}
	if sys.sat != nil {
		conf, prop := sys.sat.SolverStats()
		c.conflicts, c.propagations = conf-conf0, prop-prop0
	}
	c.res = res
	return c, nil
}

// checkFront verifies every front solution: it passes the model's
// independent structural checker and re-scores to its stored objective
// vector.
func checkFront(res *core.Result) error {
	if len(res.Solutions) == 0 {
		return checkf("empty Pareto front")
	}
	for i, s := range res.Solutions {
		if errs := s.Impl.Check(); len(errs) != 0 {
			return checkf("front solution %d infeasible: %v", i, errs[0])
		}
		if v := objective.EvaluateRobust(s.Impl, objective.RobustConfig{}); v != s.Objectives {
			return checkf("front solution %d re-scores to %+v, stored %+v", i, v, s.Objectives)
		}
	}
	return nil
}

// frontHV is the hypervolume of the front against the specification's
// worst-case objective vector.
func frontHV(spec *model.Specification, res *core.Result) float64 {
	pts := make([]moea.Objectives, len(res.Solutions))
	for i, s := range res.Solutions {
		pts[i] = s.Objectives.Minimized()
	}
	return moea.Hypervolume3D(pts, objective.WorstCase(spec).Minimized())
}

// frontBytes serializes a front for byte comparison: each solution's
// objective bits and its decoded allocation, binding and routing.
func frontBytes(res *core.Result) ([]byte, error) {
	var buf bytes.Buffer
	for _, s := range res.Solutions {
		for _, v := range s.Objectives.Minimized() {
			fmt.Fprintf(&buf, "%016x ", math.Float64bits(v))
		}
		b, err := json.Marshal([]any{s.Impl.Allocation, s.Impl.Binding, s.Impl.Routing})
		if err != nil {
			return nil, err
		}
		buf.Write(b)
		buf.WriteByte('\n')
	}
	return buf.Bytes(), nil
}

func runDSE(p params, k dseKind) (*run, error) {
	r := &run{}
	sys, specT, decT, reps, err := buildDSE(k)
	if err != nil {
		return nil, err
	}
	r.set("setup_s", (specT + decT).Seconds())
	fmt.Fprintf(p.out, "setup: casestudy.Build %.2f ms + decoder %.2f ms (median of %d)\n",
		ms(specT), ms(decT), reps)

	// Warm-up: the first campaign pays lazy initialization (the
	// objective index of the specification, the pinned per-worker SAT
	// states) and is not timed.
	if _, err := runCampaign(sys, k, 2, campaignSeed(p.seed, -1), nil, false); err != nil {
		return nil, err
	}
	if p.trace {
		err = traceDSE(p, k, sys, r, specT, decT)
	} else {
		err = timeDSE(p, k, sys, r)
	}
	if err != nil {
		return r, err
	}
	r.set("heap_mb", retainedMiB(func() { sys = nil }))
	return r, nil
}

// timeDSE runs untraced campaigns until the measuring time is spent and
// reports evaluations per second and evaluation latency.
func timeDSE(p params, k dseKind, sys *dseSystem, r *run) error {
	var wall time.Duration
	var lat durs
	var rates []float64
	campaigns := 0
	start := time.Now()
	for time.Since(start) < p.duration {
		c, err := runCampaign(sys, k, k.gens, campaignSeed(p.seed, campaigns), nil, false)
		if err != nil {
			return err
		}
		campaigns++
		r.attempted += c.res.Evaluations
		r.failed += c.res.DecodeFailures
		wall += c.wall
		rates = append(rates, float64(c.res.Evaluations)/c.wall.Seconds())
		lat = append(lat, c.probe.evalLatencies()...)
		if err := checkFront(c.res); err != nil {
			return err
		}
	}
	if len(lat) < minSamples {
		return fmt.Errorf("%d evaluation latency samples, need %d", len(lat), minSamples)
	}
	ls := lat.in(time.Millisecond)
	// Each campaign's evaluations over its whole Explorer.Run, initial
	// population and result assembly included; the median over campaigns,
	// so one campaign that shares the machine with a burst of other load
	// does not move it.
	tput := median(rates)
	r.set("throughput_per_s", tput)
	r.set("latency_p50_ms", quantile(ls, 0.5))
	r.set("latency_p90_ms", quantile(ls, 0.9))
	fmt.Fprintf(p.out, "campaigns %d (pop %d × %d generations): %d evaluations in %.3f s; %.1f evals/s (median over campaigns); decode failures %d\n",
		campaigns, k.pop, k.gens, r.attempted, wall.Seconds(), tput, r.failed)
	fmt.Fprintf(p.out, "evaluation latency p50 %.3f ms p90 %.3f ms (n=%d)\n", quantile(ls, 0.5), quantile(ls, 0.9), len(ls))
	return nil
}

// probe sits in Explorer.Decoder. It forwards DecodeWorker, so the
// pinned per-worker SAT states stay in use, and SolverStats, so
// telemetry is unchanged.
//
// Untraced, its only work is one clock read per decode: the interval
// between consecutive decode starts on one worker within a generation's
// batch is one evaluation — a decode plus its objectives — as the
// evaluation pool sees it. Traced, it also times every decode, tracks
// each generation's span from the first decode start to the last decode
// end, and keeps a sample of genotypes and implementations for the
// split replays.
type probe struct {
	inner  core.Decoder
	wd     core.WorkerDecoder // inner's per-worker path, if it has one
	traced bool
	epoch  time.Time
	// gen counts completed generations; the optimizer goroutine bumps it
	// between batches, when no decode is in flight.
	gen   atomic.Int64
	slots []probeSlot
	// first/last bound the current generation's decodes, in ns since
	// epoch.
	first, last atomic.Int64
}

type probeSlot struct {
	start  time.Time // the worker's previous decode start
	gen    int64     // and its generation
	eval   durs
	decode durs
	sample []sampled
	_      [64]byte // keep workers' slots off each other's cache lines
}

// sampled is one decode kept for the split replays.
type sampled struct {
	key  uint64
	g    []float64
	impl *model.Implementation
}

// sampleEvery is the share (one in sampleEvery) of decodes kept for the
// split replays. The choice hashes the genotype, so the sample is a
// function of the campaign alone, not of which worker decoded what.
const sampleEvery = 31

func genoKey(g []float64) uint64 {
	k := uint64(len(g))
	for _, v := range g {
		k = splitmix64(k ^ math.Float64bits(v))
	}
	return k
}

func newProbe(inner core.Decoder, workers int, traced bool) *probe {
	p := &probe{inner: inner, traced: traced, epoch: time.Now(), slots: make([]probeSlot, workers)}
	p.wd, _ = inner.(core.WorkerDecoder)
	p.span()
	return p
}

func (p *probe) GenotypeLen() int { return p.inner.GenotypeLen() }

func (p *probe) Decode(g []float64) (*model.Implementation, error) { return p.inner.Decode(g) }

func (p *probe) SolverStats() (conflicts, propagations int64) {
	if sr, ok := p.inner.(core.SolverStatsReporter); ok {
		return sr.SolverStats()
	}
	return 0, 0
}

func (p *probe) DecodeWorker(w int, g []float64) (*model.Implementation, error) {
	if w >= len(p.slots) {
		return p.decode(w, g)
	}
	s := &p.slots[w]
	t0 := time.Now()
	// Generation 0 shares its interval with the initial population, so
	// evaluations are counted from generation 1 on.
	if gen := p.gen.Load(); gen > 0 && gen == s.gen {
		s.eval = append(s.eval, t0.Sub(s.start))
	}
	s.start, s.gen = t0, p.gen.Load()
	x, err := p.decode(w, g)
	if !p.traced {
		return x, err
	}
	t1 := time.Now()
	s.decode = append(s.decode, t1.Sub(t0))
	lo, hi := t0.Sub(p.epoch).Nanoseconds(), t1.Sub(p.epoch).Nanoseconds()
	for cur := p.first.Load(); lo < cur && !p.first.CompareAndSwap(cur, lo); cur = p.first.Load() {
	}
	for cur := p.last.Load(); hi > cur && !p.last.CompareAndSwap(cur, hi); cur = p.last.Load() {
	}
	if k := genoKey(g); k%sampleEvery == 0 && err == nil {
		s.sample = append(s.sample, sampled{k, append([]float64(nil), g...), x})
	}
	return x, err
}

func (p *probe) decode(w int, g []float64) (*model.Implementation, error) {
	if p.wd != nil {
		return p.wd.DecodeWorker(w, g)
	}
	return p.inner.Decode(g)
}

// span returns the current generation's decode span and resets it.
func (p *probe) span() time.Duration {
	sp := time.Duration(p.last.Load() - p.first.Load())
	p.first.Store(math.MaxInt64)
	p.last.Store(0)
	if sp < 0 {
		return 0
	}
	return sp
}

func (p *probe) evalLatencies() durs {
	var out durs
	for i := range p.slots {
		out = append(out, p.slots[i].eval...)
	}
	return out
}

// traceDSE alternates untraced and traced runs of the same campaigns.
// The untraced one gives the tracing overhead and the reference front
// the traced one must reproduce byte for byte; the traced one gives the
// per-layer metrics.
func traceDSE(p params, k dseKind, sys *dseSystem, r *run, specT, decT time.Duration) error {
	workers := runtime.GOMAXPROCS(0)
	reg := obs.NewRegistry()
	tracer := obs.NewTracer(reg, obs.TracerConfig{})
	var (
		untracedWall, tracedWall time.Duration
		moeaSelf, spans          time.Duration
		gens, decodes, evalLat   durs
		samples                  []sampled
		evals, genEvals          int
		hv                       float64
		archive, campaigns       int
	)
	var conflicts, propagations int64
	start := time.Now()
	for campaigns == 0 || time.Since(start) < p.duration {
		seed := campaignSeed(p.seed, campaigns)
		u, err := runCampaign(sys, k, k.gens, seed, nil, false)
		if err != nil {
			return err
		}
		t, err := runCampaign(sys, k, k.gens, seed, tracer, true)
		if err != nil {
			return err
		}
		ub, err := frontBytes(u.res)
		if err != nil {
			return err
		}
		tb, err := frontBytes(t.res)
		if err != nil {
			return err
		}
		if !bytes.Equal(ub, tb) {
			return checkf("campaign %d: traced front differs from the untraced front", campaigns)
		}
		if err := checkFront(t.res); err != nil {
			return err
		}
		if campaigns == 0 {
			hv = frontHV(sys.spec, t.res)
			archive = len(t.res.Solutions)
		}
		campaigns++
		untracedWall += u.wall
		tracedWall += t.wall
		moeaSelf += t.moeaSelf
		spans += t.spans
		gens = append(gens, t.gens...)
		evalLat = append(evalLat, t.probe.evalLatencies()...)
		evals += t.res.Evaluations
		conflicts += t.conflicts
		propagations += t.propagations
		genEvals += len(t.gens) * k.pop
		r.failed += t.res.DecodeFailures
		for i := range t.probe.slots {
			s := &t.probe.slots[i]
			decodes = append(decodes, s.decode...)
			samples = append(samples, s.sample...)
		}
	}
	r.attempted = evals

	decodeBusy := time.Duration(sum(decodes.in(1)))
	decUS := decodes.in(time.Microsecond)
	sort.Slice(samples, func(i, j int) bool { return samples[i].key < samples[j].key })
	objMean, objP50 := timeObjective(samples)
	objBusy := time.Duration(objMean * float64(evals))
	wall := tracedWall.Seconds()
	genMS := gens.in(time.Millisecond)
	overhead := tracedWall.Seconds()/untracedWall.Seconds() - 1

	r.set("casestudy.build_ms", ms(specT))
	r.set("core.decode_busy_s", decodeBusy.Seconds())
	r.set("core.decode_p50_us", quantile(decUS, 0.5))
	r.set("core.decode_p90_us", quantile(decUS, 0.9))
	r.set("core.decode_share", decodeBusy.Seconds()/(wall*float64(workers)))
	r.set("objective.eval_p50_us", objP50/1e3)
	r.set("objective.busy_est_s", objBusy.Seconds())
	r.set("moea.gen_p50_ms", quantile(genMS, 0.5))
	r.set("moea.gen_p90_ms", quantile(genMS, 0.9))
	r.set("moea.archive_size", float64(archive))
	r.set("moea.self_s", moeaSelf.Seconds())
	// The batches of generations ≥ 1 against the worker time their spans
	// offered; their share of decode and objective time is pro rata.
	busy := (decodeBusy + objBusy).Seconds() * float64(genEvals) / float64(evals)
	r.set("moea.pool_idle_frac", 1-busy/(spans.Seconds()*float64(workers)))
	r.set("moea.front_hv", hv)
	r.set("latency_samples", float64(len(evalLat)))
	r.set("fail_ratio", float64(r.failed)/float64(evals))
	r.set("trace.overhead", overhead)

	var shares splitShares
	if sys.sat != nil {
		enc := sys.sat.Enc
		r.set("encode.build_ms", ms(decT))
		r.set("encode.vars", float64(enc.Problem.NumVars()))
		r.set("encode.constraints", float64(enc.Problem.NumConstraints()))
		// Only the traced campaigns' counter deltas, over their own
		// evaluations.
		r.set("pbsat.conflicts_per_eval", float64(conflicts)/float64(evals))
		r.set("pbsat.propagations_per_eval", float64(propagations)/float64(evals))
		var err error
		if shares, err = satSplit(sys.sat, samples, p.seed, r); err != nil {
			return err
		}
	}

	// Ledger: wall-clock seconds of the traced campaigns against the
	// layers' self times. Decode and objective run on the worker pool, so
	// their worker-seconds count divided by the worker count.
	decodeWall := decodeBusy.Seconds() / float64(workers)
	objWall := objBusy.Seconds() / float64(workers)
	residual := wall - moeaSelf.Seconds() - decodeWall - objWall
	r.set("ledger.residual_s", residual)
	fmt.Fprintf(p.out, "\nledger %s: %d traced campaigns (pop %d × %d generations), %d evaluations, wall %.3f s, %d workers\n",
		k.name, campaigns, k.pop, k.gens, evals, wall, workers)
	row := func(name string, s float64) { fmt.Fprintf(p.out, "  %-44s %9.3f s  %5.1f %%\n", name, s, 100*s/wall) }
	row("moea self (serial generation work)", moeaSelf.Seconds())
	row("core decode / workers", decodeWall)
	if sys.sat != nil {
		row("  encode.branching (split share)", decodeWall*shares.branching)
		row("  pbsat.solve (split share)", decodeWall*shares.solve)
		row("  encode.extract (split share)", decodeWall*shares.extract)
	}
	row("objective / workers (replayed estimate)", objWall)
	row("residual (pool idle, initial population, other)", residual)
	fmt.Fprintf(p.out, "tracing overhead: traced %.3f s / untraced %.3f s − 1 = %+.2f %%\n",
		tracedWall.Seconds(), untracedWall.Seconds(), 100*overhead)
	fmt.Fprintf(p.out, "samples: decode %d (p50 %.1f µs, p90 %.1f µs), generation %d (p50 %.2f ms, p90 %.2f ms); pool idle %.1f %%; front hv %.6g, archive %d\n",
		len(decUS), quantile(decUS, 0.5), quantile(decUS, 0.9), len(genMS), quantile(genMS, 0.5), quantile(genMS, 0.9),
		100*r.metrics["moea.pool_idle_frac"], hv, archive)

	stages := obsTotals(reg)
	fmt.Fprintln(p.out, "obs cross-check (program's own stage spans vs harness timings):")
	crossCheck(p.out, "decode", stages["decode"], decodeBusy.Seconds(), "probe decode busy")
	crossCheck(p.out, "objective", stages["objective"], objBusy.Seconds(), "replayed objective estimate")
	crossCheck(p.out, "generation", stages["generation"], sum(genMS)/1e3, "generation gaps, gen ≥ 1")
	return nil
}

// timeObjective replays objective.EvaluateRobust on the sampled
// implementations and returns the mean and median ns per evaluation.
func timeObjective(samples []sampled) (mean, p50 float64) {
	if len(samples) == 0 {
		return 0, 0
	}
	const reps = 20
	per := make([]float64, 0, len(samples))
	for _, sm := range samples {
		x := sm.impl
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			objective.EvaluateRobust(x, objective.RobustConfig{})
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/reps)
	}
	return sum(per) / float64(len(per)), median(per)
}

type splitShares struct{ branching, solve, extract float64 }

// satSplitSamples is how many campaign genotypes the split replay
// decodes step by step.
const satSplitSamples = 12

// satSplit replays a seeded sample of the campaign's genotypes through
// Encoding.Branching → pbsat.NewSolver(enc.Problem).Solve →
// Encoding.Decode, checks each against SATDecoder.Decode, and reports
// the steps' times and shares.
func satSplit(dec *core.SATDecoder, samples []sampled, seed uint64, r *run) (splitShares, error) {
	if len(samples) == 0 {
		return splitShares{}, fmt.Errorf("no sampled genotypes for the SAT split")
	}
	enc := dec.Enc
	var br, build, solve, extract durs
	for i := 0; i < satSplitSamples; i++ {
		g := samples[splitmix64(seed+uint64(i))%uint64(len(samples))].g
		t0 := time.Now()
		b, err := enc.Branching(g)
		if err != nil {
			return splitShares{}, err
		}
		t1 := time.Now()
		s := pbsat.NewSolver(enc.Problem)
		t2 := time.Now()
		res := s.Solve(b)
		t3 := time.Now()
		if !res.SAT {
			return splitShares{}, checkf("split decode %d: solver found no model", i)
		}
		x, err := enc.Decode(res.Model)
		t4 := time.Now()
		if err != nil {
			return splitShares{}, checkf("split decode %d: %v", i, err)
		}
		want, err := dec.Decode(g)
		if err != nil {
			return splitShares{}, checkf("split decode %d: SATDecoder.Decode: %v", i, err)
		}
		if !sameImpl(x, want) {
			return splitShares{}, checkf("split decode %d differs from SATDecoder.Decode", i)
		}
		br = append(br, t1.Sub(t0))
		build = append(build, t2.Sub(t1))
		solve = append(solve, t3.Sub(t2))
		extract = append(extract, t4.Sub(t3))
	}
	b, s, e := sum(br.in(1)), sum(solve.in(1)), sum(extract.in(1))
	r.set("encode.branching_us", median(br.in(time.Microsecond)))
	r.set("pbsat.solver_build_ms", median(build.in(time.Millisecond)))
	r.set("pbsat.solve_ms", median(solve.in(time.Millisecond)))
	r.set("encode.extract_us", median(extract.in(time.Microsecond)))
	t := b + s + e
	return splitShares{b / t, s / t, e / t}, nil
}

func sameImpl(a, b *model.Implementation) bool {
	return reflect.DeepEqual(a.Allocation, b.Allocation) &&
		reflect.DeepEqual(a.Binding, b.Binding) &&
		reflect.DeepEqual(a.Routing, b.Routing)
}
