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
	"sort"

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
// tmax ≤ 0 uses the architecture graph diameter + 1. Multicast messages
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
	if tmax <= 0 {
		tmax = diameter(spec.Arch) + 1
	}
	var bo buildOptions
	for _, opt := range opts {
		opt(&bo)
	}
	e := &Encoding{
		Spec:     spec,
		ix:       spec.Index(),
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

// diameter returns the longest shortest-path hop count of the graph.
func diameter(arch *model.ArchitectureGraph) int {
	d := 1
	res := arch.Resources()
	for _, a := range res {
		for _, b := range res {
			if a.ID >= b.ID {
				continue
			}
			if path, ok := arch.ShortestPath(a.ID, b.ID, nil); ok && len(path) > d {
				d = len(path)
			}
		}
	}
	return d
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
	msgs := e.Spec.App.Messages()
	e.msgSteps = make([][]stepEntry, len(msgs))
	for mi, msg := range msgs {
		srcOpts := e.Spec.MappingTargets(msg.Src)
		dstOpts := e.Spec.MappingTargets(msg.Dst[0])
		distFromSrc := multiSourceDist(e.Spec.Arch, srcOpts)
		distToDst := multiSourceDist(e.Spec.Arch, dstOpts)
		for ri, r := range e.Spec.Arch.Resources() {
			ds, okS := distFromSrc[r.ID]
			dd, okD := distToDst[r.ID]
			if !okS || !okD || ds+dd > e.TMax-1 {
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

// multiSourceDist returns hop distances from the nearest of the given
// sources.
func multiSourceDist(arch *model.ArchitectureGraph, sources []model.ResourceID) map[model.ResourceID]int {
	dist := make(map[model.ResourceID]int)
	var queue []model.ResourceID
	for _, s := range sources {
		if _, seen := dist[s]; !seen {
			dist[s] = 0
			queue = append(queue, s)
		}
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, n := range arch.Neighbors(cur) {
			if _, seen := dist[n]; !seen {
				dist[n] = dist[cur] + 1
				queue = append(queue, n)
			}
		}
	}
	return dist
}

// MapVar returns the variable of a mapping edge.
func (e *Encoding) MapVar(m model.Mapping) (pbsat.Var, bool) {
	v, ok := e.mapVars[m]
	return v, ok
}

// addTaskConstraints binds mandatory tasks exactly once and optional
// diagnosis tasks at most once (Eq. 2a).
func (e *Encoding) addTaskConstraints() {
	for _, t := range e.Spec.App.Tasks() {
		var lits []pbsat.Lit
		for _, r := range e.Spec.MappingTargets(t.ID) {
			lits = append(lits, pbsat.Pos(e.mapVars[model.Mapping{Task: t.ID, Resource: r}]))
		}
		if t.Kind.Diagnostic() {
			e.Problem.AtMostOne("2a:"+string(t.ID), lits...)
		} else {
			e.Problem.ExactlyOne("bind:"+string(t.ID), lits...)
		}
	}
}

// boundLits returns the mapping literals of a task (their sum is the
// "task is bound" indicator).
func (e *Encoding) boundLits(t model.TaskID) []pbsat.Lit {
	var lits []pbsat.Lit
	for _, r := range e.Spec.MappingTargets(t) {
		lits = append(lits, pbsat.Pos(e.mapVars[model.Mapping{Task: t, Resource: r}]))
	}
	return lits
}

func (e *Encoding) addRoutingConstraints() {
	for mi, msg := range e.Spec.App.Messages() {
		dst := msg.Dst[0]
		// Eq. 2b: the route starts at the sender's resource at τ = 0:
		// c_{r,0} = m_{src,r} for every sender option r, and c_{r,0} = 0
		// elsewhere (those variables simply do not exist or are forced).
		senderOpts := make(map[model.ResourceID]bool)
		for _, r := range e.Spec.MappingTargets(msg.Src) {
			senderOpts[r] = true
			sv, ok := e.stepVar[stepKey{msg.ID, r, 0}]
			if !ok {
				// Sender option pruned (receiver unreachable within TMax):
				// then the sender must not bind here together with a bound
				// receiver; handled by 2c below turning infeasible. Skip.
				continue
			}
			e.Problem.Equiv(pbsat.Pos(sv), pbsat.Pos(e.mapVars[model.Mapping{Task: msg.Src, Resource: r}]),
				"2b:"+string(msg.ID))
		}
		for _, se := range e.msgSteps[mi] {
			if se.tau != 0 {
				break // τ-sorted: the τ = 0 steps come first
			}
			if !senderOpts[e.ix.Resources[se.pos].ID] {
				e.Problem.AddClause("2b0:"+string(msg.ID), pbsat.Not(se.v))
			}
		}

		// Eq. 2c (generalized to any receiver): if the sender is bound
		// and the receiver is bound to r, the message must arrive at r:
		// c_r − Σ m_{src,·} − m_{dst,r} ≥ −1.
		for _, r := range e.Spec.MappingTargets(dst) {
			terms := []pbsat.Term{}
			rv, ok := e.routeVar[routeKey{msg.ID, r}]
			if ok {
				terms = append(terms, pbsat.Term{Coef: 1, Lit: pbsat.Pos(rv)})
			}
			for _, l := range e.boundLits(msg.Src) {
				terms = append(terms, pbsat.Term{Coef: -1, Lit: l})
			}
			terms = append(terms, pbsat.Term{Coef: -1, Lit: pbsat.Pos(e.mapVars[model.Mapping{Task: dst, Resource: r}])})
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
			for _, n := range e.Spec.Arch.Neighbors(e.ix.Resources[se.pos].ID) {
				if pv, ok := e.stepVar[stepKey{msg.ID, n, se.tau - 1}]; ok {
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
		for _, d := range e.Spec.App.Tasks() {
			if !d.Kind.Diagnostic() {
				continue
			}
			for _, r := range e.Spec.MappingTargets(d.ID) {
				terms := []pbsat.Term{{Coef: -1, Lit: pbsat.Pos(e.mapVars[model.Mapping{Task: d.ID, Resource: r}])}}
				for _, t := range e.Spec.MappableTasks(r) {
					task := e.Spec.App.Task(t)
					if task == nil || task.Kind.Diagnostic() {
						continue
					}
					terms = append(terms, pbsat.Term{Coef: 1, Lit: pbsat.Pos(e.mapVars[model.Mapping{Task: t, Resource: r}])})
				}
				e.Problem.AddGE(terms, 0, "2h:"+string(d.ID))
			}
		}
	}

	// Eq. 3a: at most one BIST test task per resource.
	perECU := make(map[model.ResourceID][]pbsat.Lit)
	for _, bT := range e.Spec.App.TasksOfKind(model.KindBISTTest) {
		for _, r := range e.Spec.MappingTargets(bT.ID) {
			perECU[r] = append(perECU[r], pbsat.Pos(e.mapVars[model.Mapping{Task: bT.ID, Resource: r}]))
		}
	}
	var ecus []model.ResourceID
	for r := range perECU {
		ecus = append(ecus, r)
	}
	sort.Slice(ecus, func(i, j int) bool { return ecus[i] < ecus[j] })
	for _, r := range ecus {
		e.Problem.AtMostOne("3a:"+string(r), perECU[r]...)
	}

	// Eq. 3b: b^D is bound iff its paired b^T is bound (moved below).
	e.add3b()
}

// addMemoryConstraints bounds the permanent memory of every resource
// with a finite capacity: Σ mem(t)·m_{t,r} ≤ cap(r), in KiB units to
// keep pseudo-Boolean coefficients small.
func (e *Encoding) addMemoryConstraints() {
	for _, r := range e.Spec.Arch.Resources() {
		if r.MemCapBytes <= 0 {
			continue
		}
		var terms []pbsat.Term
		for _, t := range e.Spec.MappableTasks(r.ID) {
			task := e.Spec.App.Task(t)
			if task == nil || task.MemBytes <= 0 {
				continue
			}
			kib := int((task.MemBytes + 1023) / 1024)
			if kib == 0 {
				kib = 1
			}
			terms = append(terms, pbsat.Term{Coef: kib, Lit: pbsat.Pos(e.mapVars[model.Mapping{Task: t, Resource: r.ID}])})
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
		for _, l := range e.boundLits(bD.ID) {
			terms = append(terms, pbsat.Term{Coef: 1, Lit: l})
		}
		for _, l := range e.boundLits(bT.ID) {
			terms = append(terms, pbsat.Term{Coef: -1, Lit: l})
		}
		e.Problem.AddEQ(terms, 0, "3b:"+string(bD.ID))
	}
}
