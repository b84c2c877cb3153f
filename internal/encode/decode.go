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
	prio := make(map[pbsat.Var]float64, len(genotype))
	pref := make(map[pbsat.Var]bool, len(genotype))
	for i, g := range genotype {
		v := pbsat.Var(i + 1)
		// Distance from 0.5 is decision confidence; decide confident
		// genes first so the decode follows the genotype closely.
		d := g - 0.5
		if d < 0 {
			d = -d
		}
		prio[v] = d
		pref[v] = g >= 0.5
	}
	return pbsat.NewPriorityBranching(prio, pref), nil
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
	byTau  []model.ResourceID
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
		byTau:  make([]model.ResourceID, e.TMax),
		tauSet: make([]bool, e.TMax),
	}
}

// Decode runs the full SAT-decoding pipeline — genotype → branching →
// solver → implementation — reusing the state's solver and buffers.
// maxConflicts bounds the search (0 = solver default). The returned
// Result's Model aliases solver memory and is invalidated by the next
// Decode on the same state.
func (d *DecoderState) Decode(genotype []float64, maxConflicts int) (*model.Implementation, *pbsat.Result, error) {
	e := d.enc
	if len(genotype) != len(e.mapOrder) {
		return nil, nil, fmt.Errorf("encode: genotype length %d, want %d", len(genotype), len(e.mapOrder))
	}
	for i, g := range genotype {
		c := g - 0.5
		if c < 0 {
			c = -c
		}
		d.prio[i] = c
		d.pref[i] = g >= 0.5
	}
	d.branch.SetDense(d.prio, d.pref)
	d.solver.MaxConflicts = maxConflicts // 0 restores the solver default
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
	return e.decodeAssignment(a, make([]model.ResourceID, e.TMax), make([]bool, e.TMax))
}

// decodeAssignment reconstructs the implementation, routing every bound
// destination of each active message. The routing-chain encoding of
// [17] is unicast and Build rejects multicast messages, so the inner
// loop runs once per message — but each destination is still handled
// explicitly rather than silently assuming Dst[0].
func (e *Encoding) decodeAssignment(a pbsat.Assignment, byTau []model.ResourceID, tauSet []bool) (*model.Implementation, error) {
	x := model.NewImplementation(e.Spec)
	for i, m := range e.mapOrder {
		if a.Get(pbsat.Var(i + 1)) {
			x.Bind(m.Task, m.Resource)
		}
	}
	msgs := e.Spec.App.Messages()
	if len(msgs) != len(e.msgSteps) {
		return nil, fmt.Errorf("encode: specification has %d messages, the encoding %d", len(msgs), len(e.msgSteps))
	}
	for mi, msg := range msgs {
		if !x.Bound(msg.Src) {
			continue
		}
		for _, dst := range msg.Dst {
			if !x.Bound(dst) {
				continue
			}
			route, err := extractRoute(a, msg, e.msgSteps[mi], x.Binding[msg.Src], x.Binding[dst], byTau, tauSet)
			if err != nil {
				return nil, err
			}
			// Each (message, destination) is visited once: append
			// instead of SetRoute's search for an earlier entry.
			x.Routing = append(x.Routing, model.RouteEntry{Msg: msg.ID, Dst: dst, Route: route})
			for _, h := range route.Hops {
				x.Allocation[h] = true
			}
		}
	}
	return x, nil
}

// extractRoute walks the c_rτ assignment of msg, whose step index
// (sorted by τ) is steps, from the sender resource until the receiver
// resource is reached.
func extractRoute(a pbsat.Assignment, msg *model.Message, steps []stepEntry, srcRes, dstRes model.ResourceID, byTau []model.ResourceID, tauSet []bool) (model.Route, error) {
	for i := range tauSet {
		tauSet[i] = false
	}
	maxTau := -1
	for _, se := range steps {
		if !a.Get(se.v) {
			continue
		}
		if se.tau == maxTau { // entries are τ-sorted: equal τ means duplicate
			return model.Route{}, fmt.Errorf("encode: message %q has two resources (%q,%q) at step %d", msg.ID, byTau[se.tau], se.res, se.tau)
		}
		byTau[se.tau] = se.res
		tauSet[se.tau] = true
		maxTau = se.tau
	}
	if maxTau < 0 || !tauSet[0] || byTau[0] != srcRes {
		start := model.ResourceID("")
		if maxTau >= 0 && tauSet[0] {
			start = byTau[0]
		}
		return model.Route{}, fmt.Errorf("encode: message %q route starts at %q, sender at %q", msg.ID, start, srcRes)
	}
	hops := make([]model.ResourceID, 0, maxTau+1)
	for tau := 0; tau <= maxTau; tau++ {
		if !tauSet[tau] {
			break // chain ended
		}
		r := byTau[tau]
		hops = append(hops, r)
		if r == dstRes {
			return model.Route{Hops: hops}, nil
		}
	}
	return model.Route{}, fmt.Errorf("encode: message %q route %v never reaches receiver %q", msg.ID, hops, dstRes)
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
// branching → solver → implementation. maxConflicts bounds the search
// (0 = solver default). It builds a fresh DecoderState per call; hot
// loops should hold a DecoderState (or core.SATDecoder, which pools
// them) instead.
func (e *Encoding) SolveWithGenotype(genotype []float64, maxConflicts int) (*model.Implementation, *pbsat.Result, error) {
	return e.NewDecoderState().Decode(genotype, maxConflicts)
}

// MappingOrder exposes the deterministic mapping-edge order backing the
// genotype layout (read-only).
func (e *Encoding) MappingOrder() []model.Mapping {
	return append([]model.Mapping(nil), e.mapOrder...)
}
