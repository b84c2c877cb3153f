package encode

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/pbsat"
)

// GenotypeLen returns the genotype length used by Branching: one gene
// per mapping edge.
func (e *Encoding) GenotypeLen() int { return len(e.mapOrder) }

// Branching turns a genotype (one gene in [0,1] per mapping edge, in
// specification order) into the SAT-decoding decision order: the gene
// magnitude is the priority, values ≥ 0.5 prefer binding the edge.
// Routing variables are left to propagation and the solver fallback.
// For the allocation-free per-worker path, use DecoderState instead.
func (e *Encoding) Branching(genotype []float64) (pbsat.Branching, error) {
	if len(genotype) != len(e.mapOrder) {
		return nil, fmt.Errorf("encode: genotype length %d, want %d", len(genotype), len(e.mapOrder))
	}
	b := pbsat.NewDensePriorityBranching(len(genotype))
	prio, pref := make([]float64, len(genotype)), make([]bool, len(genotype))
	setPriorities(b, genotype, prio, pref)
	return b, nil
}

// setPriorities fills b with the decision order of the genotype, using
// prio and pref as scratch. Gene i sets mapping variable i+1: its
// distance from 0.5 is the decision confidence, so confident genes are
// decided first and the decode follows the genotype closely.
func setPriorities(b *pbsat.PriorityBranching, genotype, prio []float64, pref []bool) {
	for i, g := range genotype {
		d := g - 0.5
		if d < 0 {
			d = -d
		}
		prio[i] = d
		pref[i] = g >= 0.5
	}
	b.SetDense(prio, pref)
}

// DecoderState is the reusable per-worker decode pipeline: one PB
// solver, one dense branching and the route-extraction scratch, all
// retained across Decode calls so the steady-state decode→implementation
// path stops reconstructing solver indexes and priority maps per
// genotype. A DecoderState is not safe for concurrent use; give each
// MOEA worker its own (core.SATDecoder pools them).
type DecoderState struct {
	enc    *Encoding
	solver *pbsat.Solver
	branch *pbsat.PriorityBranching
	prio   []float64
	pref   []bool
	// Route-extraction scratch, indexed by time step τ.
	byTau  []int32
	tauSet []bool
}

// NewDecoderState builds a decode pipeline for the encoding. The
// returned state owns its solver; Decode results remain valid after the
// next call except for Result.Model, which aliases solver memory.
func (e *Encoding) NewDecoderState() *DecoderState {
	return &DecoderState{
		enc:    e,
		solver: pbsat.NewSolver(e.Problem),
		branch: pbsat.NewDensePriorityBranching(len(e.mapOrder)),
		prio:   make([]float64, len(e.mapOrder)),
		pref:   make([]bool, len(e.mapOrder)),
		byTau:  make([]int32, e.TMax),
		tauSet: make([]bool, e.TMax),
	}
}

// Decode runs the full SAT-decoding pipeline — genotype → branching →
// solver → implementation — reusing the state's solver and buffers.
// The returned Result's Model aliases solver memory and is invalidated
// by the next Decode on the same state.
func (d *DecoderState) Decode(genotype []float64) (*model.Implementation, *pbsat.Result, error) {
	e := d.enc
	if len(genotype) != len(e.mapOrder) {
		return nil, nil, fmt.Errorf("encode: genotype length %d, want %d", len(genotype), len(e.mapOrder))
	}
	setPriorities(d.branch, genotype, d.prio, d.pref)
	res := d.solver.Solve(d.branch)
	if !res.SAT {
		return nil, &res, fmt.Errorf("encode: no feasible implementation found (aborted=%v, conflicts=%d)", res.Aborted, res.Conflicts)
	}
	x, err := e.decodeAssignment(res.Model, d.byTau, d.tauSet)
	if err != nil {
		return nil, &res, err
	}
	return x, &res, nil
}

// Decode reconstructs the implementation from a satisfying assignment.
func (e *Encoding) Decode(a pbsat.Assignment) (*model.Implementation, error) {
	return e.decodeAssignment(a, make([]int32, e.TMax), make([]bool, e.TMax))
}

// decodeAssignment reconstructs the implementation, routing every bound
// destination of each active message. The routing-chain encoding of
// [17] is unicast and Build rejects multicast messages, so the inner
// loop runs once per message — but each destination is still handled
// explicitly rather than silently assuming Dst[0].
func (e *Encoding) decodeAssignment(a pbsat.Assignment, byTau []int32, tauSet []bool) (*model.Implementation, error) {
	x := model.NewImplementation(e.Spec)
	ix := x.Index()
	if len(ix.Messages) != len(e.msgSteps) {
		return nil, fmt.Errorf("encode: specification has %d messages, the encoding %d", len(ix.Messages), len(e.msgSteps))
	}
	if ix != e.ix {
		return nil, fmt.Errorf("encode: specification changed after the encoding was built")
	}
	for i, m := range e.mapPos {
		if a.Get(pbsat.Var(i + 1)) {
			x.Binding.Set(m.task, m.res)
			x.Allocation.Add(m.res)
		}
	}
	for mi, msg := range ix.Messages {
		src := x.Binding.At(ix.Src[mi])
		if src < 0 {
			continue
		}
		for j, dst := range ix.Dst[mi] {
			to := x.Binding.At(dst)
			if to < 0 {
				continue
			}
			route, err := extractRoute(a, ix, msg, e.msgSteps[mi], src, to, byTau, tauSet)
			if err != nil {
				return nil, err
			}
			// Each (message, destination) is visited once: append
			// instead of SetRoute's search for an earlier entry.
			x.Routing = append(x.Routing, model.RouteEntry{Msg: msg.ID, Dst: msg.Dst[j], Route: route})
			for _, r := range byTau[:len(route.Hops)] {
				x.Allocation.Add(r)
			}
		}
	}
	return x, nil
}

// extractRoute walks the c_rτ assignment of msg, whose step index
// (sorted by τ) is steps, from the sender resource until the receiver
// resource is reached, both given by position. On success the route's
// hops by position are byTau[:len(hops)].
func extractRoute(a pbsat.Assignment, ix *model.Index, msg *model.Message, steps []stepEntry, srcRes, dstRes int32, byTau []int32, tauSet []bool) (model.Route, error) {
	for i := range tauSet {
		tauSet[i] = false
	}
	id := func(r int32) model.ResourceID { return ix.Resources[r].ID }
	maxTau := -1
	for _, se := range steps {
		if !a.Get(se.v) {
			continue
		}
		if se.tau == maxTau { // entries are τ-sorted: equal τ means duplicate
			return model.Route{}, fmt.Errorf("encode: message %q has two resources (%q,%q) at step %d", msg.ID, id(byTau[se.tau]), id(se.pos), se.tau)
		}
		byTau[se.tau] = se.pos
		tauSet[se.tau] = true
		maxTau = se.tau
	}
	if maxTau < 0 || !tauSet[0] || byTau[0] != srcRes {
		start := model.ResourceID("")
		if maxTau >= 0 && tauSet[0] {
			start = id(byTau[0])
		}
		return model.Route{}, fmt.Errorf("encode: message %q route starts at %q, sender at %q", msg.ID, start, id(srcRes))
	}
	hops := make([]model.ResourceID, 0, maxTau+1)
	for tau := 0; tau <= maxTau; tau++ {
		if !tauSet[tau] {
			break // chain ended
		}
		r := byTau[tau]
		hops = append(hops, id(r))
		if r == dstRes {
			return model.Route{Hops: hops}, nil
		}
	}
	return model.Route{}, fmt.Errorf("encode: message %q route %v never reaches receiver %q", msg.ID, hops, id(dstRes))
}

// Stats summarizes the encoding size.
type Stats struct {
	MappingVars int
	RouteVars   int
	StepVars    int
	Constraints int
	TMax        int
}

// Stats returns the encoding size summary.
func (e *Encoding) Stats() Stats {
	return Stats{
		MappingVars: len(e.mapVars),
		RouteVars:   len(e.routeVar),
		StepVars:    len(e.stepVar),
		Constraints: e.Problem.NumConstraints(),
		TMax:        e.TMax,
	}
}

// SolveWithGenotype runs the full SAT-decoding pipeline: genotype →
// branching → solver → implementation. It builds a fresh DecoderState
// per call; hot loops should hold a DecoderState (or core.SATDecoder,
// which pools them) instead.
func (e *Encoding) SolveWithGenotype(genotype []float64) (*model.Implementation, *pbsat.Result, error) {
	return e.NewDecoderState().Decode(genotype)
}

// MappingOrder exposes the deterministic mapping-edge order backing the
// genotype layout (read-only).
func (e *Encoding) MappingOrder() []model.Mapping {
	return append([]model.Mapping(nil), e.mapOrder...)
}
