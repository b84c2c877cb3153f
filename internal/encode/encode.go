// Package encode builds the pseudo-Boolean constraint system of the
// paper's Section III-C: the characteristic function Ψ over mapping
// variables m, routing variables c_r and timed routing variables c_rτ,
// with the functional constraints Ψ_F (every mandatory task bound,
// messages routed along adjacent resources) and the diagnostic
// constraints Eqs. (2a)–(2h), (3a), (3b).
//
// A satisfying assignment decodes into a feasible model.Implementation;
// combined with a genotype-driven pbsat.Branching this realizes
// SAT-decoding.
package encode

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/model"
	"repro/internal/pbsat"
)

// Encoding holds the constraint problem and the variable maps needed to
// decode assignments back into implementations.
type Encoding struct {
	Spec    *model.Specification
	Problem *pbsat.Problem
	TMax    int // number of time steps τ ∈ {0, …, TMax−1}

	opts buildOptions
	// mapVars[mapOrder[i]] is pbsat.Var(i+1): the mapping variables are
	// the problem's first ones, in genotype order, so decoding reads
	// mapping edge i as variable i+1 without a map lookup.
	mapVars  map[model.Mapping]pbsat.Var
	mapOrder []model.Mapping // deterministic genotype order
	// ix is the specification's Index; mapPos[i] is mapOrder[i] by task
	// and resource position in it.
	ix       *model.Index
	mapPos   []edgePos
	routeVar map[routeKey]pbsat.Var
	stepVar  map[stepKey]pbsat.Var

	// msgSteps[i] holds the step variables of message i, the message at
	// position i of Spec.App.Messages(), sorted by (tau, resource), so
	// constraint emission and route extraction walk a short dense slice
	// in a fixed order instead of scanning the whole stepVar map or
	// hashing the message ID.
	msgSteps [][]stepEntry
}

// stepEntry is one (resource, time-step) routing variable of a message
// in the msgSteps index, the resource by its Index position.
type stepEntry struct {
	pos int32
	tau int
	v   pbsat.Var
}

// edgePos is a mapping edge by task and resource position.
type edgePos struct {
	task, res int32
}

type routeKey struct {
	msg model.MessageID
	res model.ResourceID
}

type stepKey struct {
	msg model.MessageID
	res model.ResourceID
	tau int
}

// Option tweaks the constraint system, mainly for ablation studies.
type Option func(*buildOptions)

type buildOptions struct {
	disable2h bool
}

// Without2h drops Eq. (2h) — the rule forbidding resources allocated
// solely for diagnosis. The DESIGN.md A3 ablation shows what goes wrong
// without it: the optimizer may bind BIST tasks to otherwise idle
// resources to inflate the average coverage.
func Without2h() Option {
	return func(o *buildOptions) { o.disable2h = true }
}

// Build encodes the specification. tmax bounds route lengths in hops;
// tmax ≤ 0 uses the longest hop distance in g_A + 2. Multicast messages
// are rejected — the routing chain encoding of [17] used here is
// unicast (model multicast as one message per receiver).
func Build(spec *model.Specification, tmax int, opts ...Option) (*Encoding, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	for _, m := range spec.App.Messages() {
		if len(m.Dst) != 1 {
			return nil, fmt.Errorf("encode: message %q has %d receivers; encode unicast messages only", m.ID, len(m.Dst))
		}
	}
	ix := spec.Index()
	if tmax <= 0 {
		// A shortest route of d hops occupies d+1 time steps; one more
		// is spare.
		longest := 0
		for a := range ix.Resources {
			for b := range ix.Resources {
				longest = max(longest, ix.Dist(int32(a), int32(b)))
			}
		}
		tmax = longest + 2
	}
	var bo buildOptions
	for _, opt := range opts {
		opt(&bo)
	}
	e := &Encoding{
		Spec:     spec,
		ix:       ix,
		Problem:  pbsat.NewProblem(),
		TMax:     tmax,
		opts:     bo,
		mapVars:  make(map[model.Mapping]pbsat.Var),
		routeVar: make(map[routeKey]pbsat.Var),
		stepVar:  make(map[stepKey]pbsat.Var),
	}
	e.allocMappingVars()
	e.allocRoutingVars()
	e.addTaskConstraints()
	e.addRoutingConstraints()
	e.addDiagnosisConstraints()
	e.addMemoryConstraints()
	return e, nil
}

func (e *Encoding) allocMappingVars() {
	for i, m := range e.Spec.Mappings() {
		v := e.Problem.NewVar("m:" + m.String())
		if v != pbsat.Var(i+1) {
			// Decoding and the dense branching rely on this layout.
			panic(fmt.Sprintf("encode: mapping variable %v is x%d, want x%d", m, v, i+1))
		}
		e.mapVars[m] = v
		e.mapOrder = append(e.mapOrder, m)
		e.mapPos = append(e.mapPos, edgePos{e.ix.TaskPos(m.Task), e.ix.ResourcePos(m.Resource)})
	}
}

// allocRoutingVars creates c_r and c_rτ variables, pruned by
// reachability: (c, r, τ) exists only if r is within τ hops of some
// sender option and within TMax−1−τ hops of the receiver options. It
// indexes each message's step variables in msgSteps, sorted by (tau,
// resource) so decode-time route walks are deterministic and
// allocation-free.
func (e *Encoding) allocRoutingVars() {
	e.msgSteps = make([][]stepEntry, len(e.ix.Messages))
	for mi, msg := range e.ix.Messages {
		srcOpts := e.ix.Targets[e.ix.Src[mi]]
		dstOpts := e.ix.Targets[e.ix.Dst[mi][0]]
		for ri, r := range e.ix.Resources {
			ds, dd := e.nearest(srcOpts, int32(ri)), e.nearest(dstOpts, int32(ri))
			if ds < 0 || dd < 0 || ds+dd > e.TMax-1 {
				continue
			}
			e.routeVar[routeKey{msg.ID, r.ID}] = e.Problem.NewVar(fmt.Sprintf("c:%s@%s", msg.ID, r.ID))
			for tau := ds; tau <= e.TMax-1-dd; tau++ {
				v := e.Problem.NewVar(fmt.Sprintf("c:%s@%s.t%d", msg.ID, r.ID, tau))
				e.stepVar[stepKey{msg.ID, r.ID, tau}] = v
				e.msgSteps[mi] = append(e.msgSteps[mi], stepEntry{pos: int32(ri), tau: tau, v: v})
			}
		}
		slices.SortFunc(e.msgSteps[mi], func(a, b stepEntry) int {
			return cmp.Or(cmp.Compare(a.tau, b.tau), cmp.Compare(a.pos, b.pos))
		})
	}
}

// nearest returns the hop distance to resource r from the nearest of
// the given resources, -1 if none reaches it.
func (e *Encoding) nearest(from []int32, r int32) int {
	d := -1
	for _, f := range from {
		if fd := e.ix.Dist(f, r); fd >= 0 && (d < 0 || fd < d) {
			d = fd
		}
	}
	return d
}

// addTaskConstraints binds mandatory tasks exactly once and optional
// diagnosis tasks at most once (Eq. 2a).
func (e *Encoding) addTaskConstraints() {
	for tp, t := range e.ix.Tasks {
		lits := e.boundLits(int32(tp))
		if t.Kind.Diagnostic() {
			e.Problem.AtMostOne("2a:"+string(t.ID), lits...)
		} else {
			e.Problem.ExactlyOne("bind:"+string(t.ID), lits...)
		}
	}
}

// boundLits returns the mapping literals of the task at position tp
// (their sum is the "task is bound" indicator).
func (e *Encoding) boundLits(tp int32) []pbsat.Lit {
	var lits []pbsat.Lit
	for _, r := range e.ix.Targets[tp] {
		lits = append(lits, pbsat.Pos(e.mapVar(tp, r)))
	}
	return lits
}

// mapVar returns the variable of the mapping edge from the task at
// position tp to the resource at position r.
func (e *Encoding) mapVar(tp, r int32) pbsat.Var {
	return e.mapVars[model.Mapping{Task: e.ix.Tasks[tp].ID, Resource: e.ix.Resources[r].ID}]
}

func (e *Encoding) addRoutingConstraints() {
	for mi, msg := range e.ix.Messages {
		src, dst := e.ix.Src[mi], e.ix.Dst[mi][0]
		// Eq. 2b: the route starts at the sender's resource at τ = 0:
		// c_{r,0} = m_{src,r} for every sender option r, and c_{r,0} = 0
		// elsewhere (those variables simply do not exist or are forced).
		senderOpts := e.ix.Targets[src]
		for _, r := range senderOpts {
			sv, ok := e.stepVar[stepKey{msg.ID, e.ix.Resources[r].ID, 0}]
			if !ok {
				// Sender option pruned (receiver unreachable within TMax):
				// then the sender must not bind here together with a bound
				// receiver; handled by 2c below turning infeasible. Skip.
				continue
			}
			e.Problem.Equiv(pbsat.Pos(sv), pbsat.Pos(e.mapVar(src, r)), "2b:"+string(msg.ID))
		}
		for _, se := range e.msgSteps[mi] {
			if se.tau != 0 {
				break // τ-sorted: the τ = 0 steps come first
			}
			if !slices.Contains(senderOpts, se.pos) {
				e.Problem.AddClause("2b0:"+string(msg.ID), pbsat.Not(se.v))
			}
		}

		// Eq. 2c (generalized to any receiver): if the sender is bound
		// and the receiver is bound to r, the message must arrive at r:
		// c_r − Σ m_{src,·} − m_{dst,r} ≥ −1.
		for _, r := range e.ix.Targets[dst] {
			terms := []pbsat.Term{}
			rv, ok := e.routeVar[routeKey{msg.ID, e.ix.Resources[r].ID}]
			if ok {
				terms = append(terms, pbsat.Term{Coef: 1, Lit: pbsat.Pos(rv)})
			}
			for _, l := range e.boundLits(src) {
				terms = append(terms, pbsat.Term{Coef: -1, Lit: l})
			}
			terms = append(terms, pbsat.Term{Coef: -1, Lit: pbsat.Pos(e.mapVar(dst, r))})
			e.Problem.AddGE(terms, -1, "2c:"+string(msg.ID))
		}

		// Per-resource and per-step structure.
		for _, r := range e.Spec.Arch.Resources() {
			rv, ok := e.routeVar[routeKey{msg.ID, r.ID}]
			if !ok {
				continue
			}
			var stepLits []pbsat.Lit
			for tau := 0; tau < e.TMax; tau++ {
				if sv, ok := e.stepVar[stepKey{msg.ID, r.ID, tau}]; ok {
					stepLits = append(stepLits, pbsat.Pos(sv))
					// Eq. 2f: c_r ≥ c_rτ.
					e.Problem.Implies(pbsat.Pos(sv), pbsat.Pos(rv), "2f:"+string(msg.ID))
				}
			}
			// Eq. 2d: a resource appears at most once on the route.
			e.Problem.AtMostOne("2d:"+string(msg.ID), stepLits...)
			// Eq. 2e: c_r → some τ.
			terms := make([]pbsat.Term, 0, len(stepLits)+1)
			for _, l := range stepLits {
				terms = append(terms, pbsat.Term{Coef: 1, Lit: l})
			}
			terms = append(terms, pbsat.Term{Coef: -1, Lit: pbsat.Pos(rv)})
			e.Problem.AddGE(terms, 0, "2e:"+string(msg.ID))
		}

		// One resource per time step (unicast chain, from [17]).
		for tau := 0; tau < e.TMax; tau++ {
			var lits []pbsat.Lit
			for _, r := range e.Spec.Arch.Resources() {
				if sv, ok := e.stepVar[stepKey{msg.ID, r.ID, tau}]; ok {
					lits = append(lits, pbsat.Pos(sv))
				}
			}
			if len(lits) > 1 {
				e.Problem.AtMostOne("chain:"+string(msg.ID), lits...)
			}
		}

		// Eq. 2g: a step-τ+1 hop needs an adjacent step-τ hop.
		for _, se := range e.msgSteps[mi] {
			if se.tau == 0 {
				continue
			}
			terms := []pbsat.Term{}
			for _, n := range e.ix.Adj[se.pos] {
				if pv, ok := e.stepVar[stepKey{msg.ID, e.ix.Resources[n].ID, se.tau - 1}]; ok {
					terms = append(terms, pbsat.Term{Coef: 1, Lit: pbsat.Pos(pv)})
				}
			}
			terms = append(terms, pbsat.Term{Coef: -1, Lit: pbsat.Pos(se.v)})
			e.Problem.AddGE(terms, 0, "2g:"+string(msg.ID))
		}
	}
}

func (e *Encoding) addDiagnosisConstraints() {
	// Eq. 2h: a diagnosis task may only be mapped to a resource that
	// also hosts a mandatory task. Skipped under the Without2h ablation.
	if !e.opts.disable2h {
		for dp, d := range e.ix.Tasks {
			if !d.Kind.Diagnostic() {
				continue
			}
			for _, r := range e.ix.Targets[dp] {
				terms := []pbsat.Term{{Coef: -1, Lit: pbsat.Pos(e.mapVar(int32(dp), r))}}
				for _, t := range e.ix.Mappable[r] {
					if !e.ix.Kind[t].Diagnostic() {
						terms = append(terms, pbsat.Term{Coef: 1, Lit: pbsat.Pos(e.mapVar(t, r))})
					}
				}
				e.Problem.AddGE(terms, 0, "2h:"+string(d.ID))
			}
		}
	}

	// Eq. 3a: at most one BIST test task per resource.
	perECU := make([][]pbsat.Lit, len(e.ix.Resources))
	for tp, kind := range e.ix.Kind {
		if kind != model.KindBISTTest {
			continue
		}
		for _, r := range e.ix.Targets[tp] {
			perECU[r] = append(perECU[r], pbsat.Pos(e.mapVar(int32(tp), r)))
		}
	}
	for r, lits := range perECU {
		if len(lits) > 0 {
			e.Problem.AtMostOne("3a:"+string(e.ix.Resources[r].ID), lits...)
		}
	}

	// Eq. 3b: b^D is bound iff its paired b^T is bound (moved below).
	e.add3b()
}

// addMemoryConstraints bounds the permanent memory of every resource
// with a finite capacity: Σ mem(t)·m_{t,r} ≤ cap(r), in KiB units to
// keep pseudo-Boolean coefficients small.
func (e *Encoding) addMemoryConstraints() {
	for rp, r := range e.ix.Resources {
		if r.MemCapBytes <= 0 {
			continue
		}
		var terms []pbsat.Term
		for _, t := range e.ix.Mappable[rp] {
			mem := e.ix.Tasks[t].MemBytes
			if mem <= 0 {
				continue
			}
			kib := int((mem + 1023) / 1024)
			if kib == 0 {
				kib = 1
			}
			terms = append(terms, pbsat.Term{Coef: kib, Lit: pbsat.Pos(e.mapVar(t, int32(rp)))})
		}
		if len(terms) == 0 {
			continue
		}
		e.Problem.AddLE(terms, int(r.MemCapBytes/1024), "mem:"+string(r.ID))
	}
}

func (e *Encoding) add3b() {
	for _, bD := range e.Spec.App.TasksOfKind(model.KindBISTData) {
		bT := e.Spec.TestTaskFor(bD)
		if bT == nil {
			continue
		}
		terms := []pbsat.Term{}
		for _, l := range e.boundLits(e.ix.TaskPos(bD.ID)) {
			terms = append(terms, pbsat.Term{Coef: 1, Lit: l})
		}
		for _, l := range e.boundLits(e.ix.TaskPos(bT.ID)) {
			terms = append(terms, pbsat.Term{Coef: -1, Lit: l})
		}
		e.Problem.AddEQ(terms, 0, "3b:"+string(bD.ID))
	}
}
