// Package core ties the reproduction together: it couples the MOEA with
// a genotype decoder (SAT-decoding via the pseudo-Boolean encoding, or
// the fast greedy constructive decoder) and the three design objectives,
// forming the design space exploration of the paper's Fig. 2.
package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/encode"
	"repro/internal/model"
)

// Decoder turns a genotype into a feasible implementation. Decoders
// must be deterministic: the same genotype always yields the same
// implementation.
type Decoder interface {
	GenotypeLen() int
	Decode(genotype []float64) (*model.Implementation, error)
}

// WorkerDecoder is an optional Decoder extension for per-worker decode
// state. The explorer calls DecodeWorker with the evaluation pool's
// stable worker index, letting the decoder pin expensive scratch (a
// solver, branching arrays) to the worker for the whole run instead of
// checking it out of a sync.Pool per decode — a pool the GC may empty
// mid-campaign, silently re-allocating solver state on every cycle.
// DecodeWorker must return the same implementation as Decode for the
// same genotype.
type WorkerDecoder interface {
	Decoder
	DecodeWorker(worker int, genotype []float64) (*model.Implementation, error)
}

// SATDecoder is the paper's SAT-decoding: the genotype orders the
// pseudo-Boolean solver's decisions over the mapping variables and the
// solver completes them into a model of Eqs. (2a)–(2h), (3a), (3b) plus
// the functional constraints.
type SATDecoder struct {
	Enc *encode.Encoding

	// states pools DecoderStates for callers of the plain Decode path
	// (tools, tests, ad-hoc decodes). The MOEA evaluation path goes
	// through DecodeWorker and the pinned per-worker states instead.
	states sync.Pool

	// workerStates pins one DecoderState per evaluation-pool worker
	// index; unlike the sync.Pool, pinned states survive GC cycles,
	// keeping the campaign's allocation profile flat.
	workerStates workerSlots[encode.DecoderState]

	// Cumulative pseudo-Boolean solver work across all decodes, for the
	// explorer's telemetry stream (SolverStatsReporter).
	conflicts    atomic.Int64
	propagations atomic.Int64
}

// NewSATDecoder builds the encoding for the specification.
func NewSATDecoder(spec *model.Specification, tmax int) (*SATDecoder, error) {
	enc, err := encode.Build(spec, tmax)
	if err != nil {
		return nil, err
	}
	return &SATDecoder{Enc: enc}, nil
}

// GenotypeLen implements Decoder.
func (d *SATDecoder) GenotypeLen() int { return d.Enc.GenotypeLen() }

// Decode implements Decoder. It is safe for concurrent use: each
// concurrent caller checks a DecoderState out of the pool for the
// duration of the decode.
func (d *SATDecoder) Decode(genotype []float64) (*model.Implementation, error) {
	st, _ := d.states.Get().(*encode.DecoderState)
	if st == nil {
		// Lazy so that struct-literal construction (without NewSATDecoder)
		// still gets pooling.
		st = d.Enc.NewDecoderState()
	}
	x, res, err := st.Decode(genotype)
	d.states.Put(st)
	if res != nil {
		d.conflicts.Add(int64(res.Conflicts))
		d.propagations.Add(int64(res.Propagated))
	}
	if err != nil {
		return nil, fmt.Errorf("core: SAT decode: %w", err)
	}
	return x, nil
}

// DecodeWorker implements WorkerDecoder: it decodes on the DecoderState
// pinned to the worker index. Each worker index is driven by exactly
// one pool goroutine at a time, so the state needs no per-decode
// locking. Decoding is deterministic per genotype regardless of which
// state performs it, so the result is identical to Decode's.
func (d *SATDecoder) DecodeWorker(worker int, genotype []float64) (*model.Implementation, error) {
	st := d.workerStates.get(worker, d.Enc.NewDecoderState)
	x, res, err := st.Decode(genotype)
	if res != nil {
		d.conflicts.Add(int64(res.Conflicts))
		d.propagations.Add(int64(res.Propagated))
	}
	if err != nil {
		return nil, fmt.Errorf("core: SAT decode: %w", err)
	}
	return x, nil
}

// workerSlots holds one *T per evaluation-pool worker index. The slice
// is grown copy-on-write under mu and published through the atomic
// pointer, so the steady-state path is one atomic load with no locking,
// and a growing slice never disturbs the readers of other indices.
type workerSlots[T any] struct {
	p  atomic.Pointer[[]*T]
	mu sync.Mutex
}

// get returns the worker's *T, making it with mk on first sight of the
// index.
func (ws *workerSlots[T]) get(worker int, mk func() *T) *T {
	if sp := ws.p.Load(); sp != nil && worker < len(*sp) && (*sp)[worker] != nil {
		return (*sp)[worker]
	}
	ws.mu.Lock()
	defer ws.mu.Unlock()
	var cur []*T
	if sp := ws.p.Load(); sp != nil {
		cur = *sp
	}
	if worker < len(cur) && cur[worker] != nil {
		return cur[worker]
	}
	next := make([]*T, max(len(cur), worker+1))
	copy(next, cur)
	next[worker] = mk()
	ws.p.Store(&next)
	return next[worker]
}

// SolverStats implements SolverStatsReporter: the cumulative conflict
// and propagation counts over every decode performed so far.
func (d *SATDecoder) SolverStats() (conflicts, propagations int64) {
	return d.conflicts.Load(), d.propagations.Load()
}
