package pbsat

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// Assignment is a model: value per variable, indexed 1..NumVars.
type Assignment []bool

// Get returns the value of v.
func (a Assignment) Get(v Var) bool { return a[v-1] }

// Branching supplies the decision order of the DPLL search. It is how
// SAT-decoding injects the genotype: decisions follow the evolved
// priorities, so the first model found lies near the genotype.
type Branching interface {
	// Next returns the literal to decide next among unassigned
	// variables; ok=false means "no preference left" and lets the solver
	// fall back to the first unassigned variable (preferring false, the
	// cheaper polarity for allocation-style problems).
	Next(isAssigned func(Var) bool) (Lit, bool)
}

// PriorityBranching decides variables in descending priority with the
// stored preferred polarity. A zero PriorityBranching is empty; (re)fill
// it with SetDense to reuse its buffers across decodes.
type PriorityBranching struct {
	order []Lit     // sorted by priority desc, then variable asc
	prio  []float64 // priority per order entry, co-sorted with order
	pos   int
}

// NewPriorityBranching builds a branching from per-variable priorities
// and preferred values. Variables missing from the maps are left to the
// solver's fallback.
func NewPriorityBranching(priority map[Var]float64, preferTrue map[Var]bool) *PriorityBranching {
	b := &PriorityBranching{
		order: make([]Lit, 0, len(priority)),
		prio:  make([]float64, 0, len(priority)),
	}
	for v := range priority {
		b.order = append(b.order, Lit{Var: v, Neg: !preferTrue[v]})
		b.prio = append(b.prio, priority[v])
	}
	b.sortOrder()
	return b
}

// NewDensePriorityBranching returns an empty branching with buffers
// sized for n variables, ready for SetDense.
func NewDensePriorityBranching(n int) *PriorityBranching {
	return &PriorityBranching{
		order: make([]Lit, 0, n),
		prio:  make([]float64, 0, n),
	}
}

// SetDense rebuilds the decision order in place from dense per-variable
// slices: entry i holds the priority and preferred polarity of variable
// i+1. It reuses the branching's buffers, so steady-state calls do not
// allocate. The resulting order matches NewPriorityBranching on maps
// with the same contents: priority descending, ties by variable index.
func (b *PriorityBranching) SetDense(priority []float64, preferTrue []bool) {
	b.order = b.order[:0]
	b.prio = b.prio[:0]
	for i, p := range priority {
		b.order = append(b.order, Lit{Var: Var(i + 1), Neg: !preferTrue[i]})
		b.prio = append(b.prio, p)
	}
	b.sortOrder()
	b.pos = 0
}

// sortOrder establishes the deterministic decision order: priority
// descending, ties broken by ascending variable index.
func (b *PriorityBranching) sortOrder() {
	sort.Sort((*byPriority)(b))
}

// byPriority sorts order/prio together; it aliases PriorityBranching so
// the sorter interface value never allocates per call.
type byPriority PriorityBranching

func (s *byPriority) Len() int { return len(s.order) }
func (s *byPriority) Less(i, j int) bool {
	if s.prio[i] != s.prio[j] {
		return s.prio[i] > s.prio[j]
	}
	return s.order[i].Var < s.order[j].Var
}
func (s *byPriority) Swap(i, j int) {
	s.order[i], s.order[j] = s.order[j], s.order[i]
	s.prio[i], s.prio[j] = s.prio[j], s.prio[i]
}

// Next implements Branching.
func (b *PriorityBranching) Next(isAssigned func(Var) bool) (Lit, bool) {
	for b.pos < len(b.order) {
		l := b.order[b.pos]
		if !isAssigned(l.Var) {
			return l, true
		}
		b.pos++
	}
	return Lit{}, false
}

// Reset rewinds the branching for a fresh Solve call.
func (b *PriorityBranching) Reset() { b.pos = 0 }

// Result reports the outcome of a Solve call.
type Result struct {
	SAT bool
	// Model is the satisfying assignment. It aliases a buffer owned by
	// the solver and is only valid until the next Solve call on the same
	// Solver; copy it to retain it longer.
	Model     Assignment
	Conflicts int
	Decisions int
	// Propagated counts the implications this call made below the
	// root. Implications at the root (decision level 0) do not depend
	// on the branching; they are made once per Problem, when its first
	// Solver is built, and are not counted here.
	Propagated int
	// Aborted is set when the conflict limit was exceeded before a
	// verdict; SAT is false in that case but unsatisfiability is NOT
	// proven.
	Aborted bool
}

// term is one weighted literal of an indexed constraint. lit is +v for
// x_v and -v for ~x_v.
type term struct {
	coef int32
	lit  int32
}

func litCode(l Lit) int32 {
	if l.Neg {
		return -int32(l.Var)
	}
	return int32(l.Var)
}

// occurrence is one (constraint, term) incidence of a variable, carrying
// everything the counter update needs: which constraint to touch, the
// term's weight, and the assignment sign under which the term's literal
// becomes false (-1 for a positive literal, +1 for a negated one).
type occurrence struct {
	ci        int32
	coef      int32
	falseWhen int8
}

// index is the read-only half of the solver. One index per Problem is
// shared by all its Solvers (see Problem.solverIndex); it is presolved
// at the root:
//
//   - assign and maxPossible hold the decision-level-0 propagation
//     fixpoint, the state every Solve starts from;
//   - only the constraints that fixpoint leaves unsatisfied ("live")
//     are kept, renumbered densely, each with just the terms still
//     unassigned at the root;
//   - occurrence lists cover only those terms.
//
// The search below the root never unassigns a root-fixed variable, and a
// constraint already satisfied at the root can never force a literal or
// conflict, so dropping both changes no decision, conflict or model.
type index struct {
	// rootConflict is set when propagation at the root already
	// conflicts: the problem is UNSAT and nothing else is kept.
	rootConflict bool

	assign      []int8  // per variable (var-1): 1=true, -1=false, 0=free
	maxPossible []int64 // per constraint: Σ coef over terms not false
	bounds      []int64 // per constraint
	maxCoef     []int64 // per constraint: largest indexed term weight, to skip no-op scans

	// Constraint ci's terms are terms[termStart[ci]:termStart[ci+1]].
	termStart []int32
	terms     []term
	// Variable v's incidences are occs[occStart[v-1]:occStart[v]], in
	// constraint order, so an assignment updates exactly the counters it
	// affects — and wakes only constraints whose slack shrank.
	occStart []int32
	occs     []occurrence
}

// rawIndex indexes every constraint of p with every variable free: the
// unpresolved input of the root pass.
func rawIndex(p *Problem) *index {
	n := len(p.constraints)
	ix := &index{
		assign:      make([]int8, p.NumVars()),
		maxPossible: make([]int64, n),
		bounds:      make([]int64, n),
		maxCoef:     make([]int64, n),
		termStart:   make([]int32, 1, n+1),
	}
	for ci := range p.constraints {
		c := &p.constraints[ci]
		ix.bounds[ci] = int64(c.Bound)
		for _, t := range c.Terms {
			if t.Coef > math.MaxInt32 {
				panic(fmt.Sprintf("pbsat: coefficient %d exceeds solver range", t.Coef))
			}
			ix.terms = append(ix.terms, term{coef: int32(t.Coef), lit: litCode(t.Lit)})
			ix.maxPossible[ci] += int64(t.Coef)
			ix.maxCoef[ci] = max(ix.maxCoef[ci], int64(t.Coef))
		}
		ix.termStart = append(ix.termStart, int32(len(ix.terms)))
	}
	ix.indexOccurrences()
	return ix
}

// presolve builds p's solver index: it runs the Solver's own propagation
// over the raw index from the empty assignment, then keeps only what
// the search below the root can still change.
func presolve(p *Problem) *index {
	raw := rawIndex(p)
	root := newSolver(raw)
	for ci := range root.inQueue {
		root.inQueue[ci] = true
		root.queue = append(root.queue, int32(ci))
	}
	if !root.propagate(&Result{}) {
		return &index{rootConflict: true}
	}
	ix := &index{
		assign:    root.assign,
		termStart: []int32{0},
	}
	for ci, bound := range raw.bounds {
		ts := raw.terms[raw.termStart[ci]:raw.termStart[ci+1]]
		var sat int64
		for _, t := range ts {
			if root.value(t.lit) > 0 {
				sat += int64(t.coef)
			}
		}
		if sat >= bound {
			continue // satisfied at the root
		}
		var maxCoef int64
		for _, t := range ts {
			if root.value(t.lit) == 0 {
				ix.terms = append(ix.terms, t)
				maxCoef = max(maxCoef, int64(t.coef))
			}
		}
		ix.bounds = append(ix.bounds, bound)
		ix.maxPossible = append(ix.maxPossible, root.maxPossible[ci])
		ix.maxCoef = append(ix.maxCoef, maxCoef)
		ix.termStart = append(ix.termStart, int32(len(ix.terms)))
	}
	ix.indexOccurrences()
	return ix
}

// indexOccurrences builds the per-variable occurrence lists of the
// indexed terms.
func (ix *index) indexOccurrences() {
	n := len(ix.assign)
	ix.occStart = make([]int32, n+1)
	for _, t := range ix.terms {
		ix.occStart[abs32(t.lit)]++
	}
	for v := 1; v <= n; v++ {
		ix.occStart[v] += ix.occStart[v-1]
	}
	next := slices.Clone(ix.occStart[:n])
	ix.occs = make([]occurrence, len(ix.terms))
	for ci := 0; ci+1 < len(ix.termStart); ci++ {
		for _, t := range ix.terms[ix.termStart[ci]:ix.termStart[ci+1]] {
			v, falseWhen := t.lit, int8(-1)
			if v < 0 {
				v, falseWhen = -v, 1
			}
			ix.occs[next[v-1]] = occurrence{ci: int32(ci), coef: t.coef, falseWhen: falseWhen}
			next[v-1]++
		}
	}
}

func abs32(x int32) int32 {
	if x < 0 {
		return -x
	}
	return x
}

// Solver runs chronological DPLL with counter-based pseudo-Boolean unit
// propagation: each constraint's maximum achievable sum is maintained
// incrementally on assign/unassign instead of being recomputed from its
// terms on every visit. A Solver owns only mutable search state over
// its Problem's shared, root-presolved index, and every Solve starts
// from the root fixpoint, so one Solver serves many Solve calls (the
// SAT-decoding hot loop). It is not safe for concurrent use; Solvers of
// one Problem may run concurrently.
type Solver struct {
	// MaxConflicts bounds the search (0 = 1,000,000).
	MaxConflicts int

	ix *index

	assign []int8  // 1=true, -1=false, 0=unassigned; index var-1
	trail  []int32 // variables assigned below the root, in order

	// maxPossible[ci] is the current Σ coef over constraint ci's terms
	// whose literal is not yet false.
	maxPossible []int64

	inQueue []bool  // constraint index -> queued for recheck
	queue   []int32 // recheck worklist

	// free is the fallback decision cursor: every variable below it is
	// assigned. backtrack lowers it.
	free int

	stack    []decision // reusable decision stack
	modelBuf Assignment // backs Result.Model across calls
}

// NewSolver prepares a solver for the problem. The problem's solver
// index is built and presolved on the first call and shared by every
// later Solver until the problem changes.
func NewSolver(p *Problem) *Solver { return newSolver(p.solverIndex()) }

func newSolver(ix *index) *Solver {
	return &Solver{
		MaxConflicts: 1_000_000,
		ix:           ix,
		assign:       slices.Clone(ix.assign),
		maxPossible:  slices.Clone(ix.maxPossible),
		inQueue:      make([]bool, len(ix.bounds)),
	}
}

func (s *Solver) value(lit int32) int8 {
	if lit < 0 {
		return -s.assign[-lit-1]
	}
	return s.assign[lit-1]
}

// assignLit records the assignment, updates the slack counters of every
// constraint a falsified term belongs to, and wakes those constraints.
// Constraints where the literal became true are not queued: their slack
// is unchanged, so no new propagation or conflict can arise from them.
func (s *Solver) assignLit(lit int32) {
	v, val := lit, int8(1)
	if lit < 0 {
		v, val = -lit, -1
	}
	s.assign[v-1] = val
	s.trail = append(s.trail, v)
	for _, o := range s.ix.occs[s.ix.occStart[v-1]:s.ix.occStart[v]] {
		if o.falseWhen != val {
			continue
		}
		s.maxPossible[o.ci] -= int64(o.coef)
		if !s.inQueue[o.ci] {
			s.inQueue[o.ci] = true
			s.queue = append(s.queue, o.ci)
		}
	}
}

// backtrack undoes the trail down to length n, restoring the slack
// counters.
func (s *Solver) backtrack(n int) {
	for len(s.trail) > n {
		v := s.trail[len(s.trail)-1]
		s.trail = s.trail[:len(s.trail)-1]
		val := s.assign[v-1]
		s.assign[v-1] = 0
		for _, o := range s.ix.occs[s.ix.occStart[v-1]:s.ix.occStart[v]] {
			if o.falseWhen == val {
				s.maxPossible[o.ci] += int64(o.coef)
			}
		}
		s.free = min(s.free, int(v-1))
	}
}

// propagate runs slack-based unit propagation over the recheck
// worklist: only constraints whose slack shrank are revisited, and a
// constraint's terms are scanned only when its largest weight exceeds
// the current slack (otherwise nothing can be forced). It returns false
// on conflict; the queue is drained either way (a conflict clears it,
// since backtracking re-seeds from the flipped decision's occurrences).
func (s *Solver) propagate(res *Result) bool {
	ix := s.ix
	for len(s.queue) > 0 {
		ci := s.queue[len(s.queue)-1]
		s.queue = s.queue[:len(s.queue)-1]
		s.inQueue[ci] = false
		slack := s.maxPossible[ci] - ix.bounds[ci]
		if slack < 0 {
			// Conflict: clear the queue; the caller backtracks and
			// re-seeds via assignLit of the flipped decision.
			for _, qi := range s.queue {
				s.inQueue[qi] = false
			}
			s.queue = s.queue[:0]
			return false
		}
		if ix.maxCoef[ci] <= slack {
			continue // no term outweighs the slack; nothing to force
		}
		for _, t := range ix.terms[ix.termStart[ci]:ix.termStart[ci+1]] {
			if int64(t.coef) > slack && s.value(t.lit) == 0 {
				s.assignLit(t.lit)
				res.Propagated++
			}
		}
	}
	return true
}

// decision is one entry of the chronological decision stack.
type decision struct {
	trailLen int
	lit      Lit
	flipped  bool
}

// Solve searches for a model, deciding variables in the order supplied
// by branch (nil uses plain first-unassigned/false-first). The search
// starts from the root fixpoint: the previous call's assignments are
// undone, so the same Solver can serve many Solve calls without
// reallocating its state.
func (s *Solver) Solve(branch Branching) Result {
	if s.ix.rootConflict {
		// The first propagation, before any decision, conflicts.
		return Result{Conflicts: 1}
	}
	res := Result{}
	s.backtrack(0)
	if pb, ok := branch.(*PriorityBranching); ok {
		pb.Reset()
	}
	isAssigned := func(v Var) bool { return s.assign[v-1] != 0 }

	s.stack = s.stack[:0]
	maxConf := s.MaxConflicts
	if maxConf <= 0 {
		maxConf = 1_000_000
	}

	for {
		ok := s.propagate(&res)
		if ok {
			l, any := s.nextDecision(branch, isAssigned)
			if !any {
				// All variables assigned (or none left to decide): model.
				res.SAT = true
				if s.modelBuf == nil {
					s.modelBuf = make(Assignment, len(s.assign))
				}
				for i, v := range s.assign {
					s.modelBuf[i] = v > 0
				}
				res.Model = s.modelBuf
				return res
			}
			s.stack = append(s.stack, decision{trailLen: len(s.trail), lit: l})
			s.assignLit(litCode(l))
			res.Decisions++
			continue
		}
		// Conflict: chronological backtracking.
		res.Conflicts++
		if res.Conflicts > maxConf {
			res.Aborted = true
			return res
		}
		flipped := false
		for len(s.stack) > 0 {
			top := &s.stack[len(s.stack)-1]
			s.backtrack(top.trailLen)
			if !top.flipped {
				top.flipped = true
				top.lit = top.lit.Negated()
				s.assignLit(litCode(top.lit))
				flipped = true
				break
			}
			s.stack = s.stack[:len(s.stack)-1]
		}
		if !flipped {
			return res // UNSAT
		}
	}
}

// nextDecision consults the branching, falling back to the first
// unassigned variable with negative polarity.
func (s *Solver) nextDecision(branch Branching, isAssigned func(Var) bool) (Lit, bool) {
	if branch != nil {
		if l, ok := branch.Next(isAssigned); ok {
			if s.assign[l.Var-1] != 0 {
				// Branching returned an assigned var despite the filter;
				// defensive fallback below.
				panic(fmt.Sprintf("pbsat: branching returned assigned variable x%d", int(l.Var)))
			}
			return l, true
		}
	}
	for ; s.free < len(s.assign); s.free++ {
		if s.assign[s.free] == 0 {
			return Lit{Var: Var(s.free + 1), Neg: true}, true
		}
	}
	return Lit{}, false
}

// Verify checks a full assignment against every constraint and returns
// the tags of violated constraints (empty means satisfied).
func (p *Problem) Verify(a Assignment) []string {
	var bad []string
	for i := range p.constraints {
		c := &p.constraints[i]
		sum := 0
		for _, t := range c.Terms {
			val := a.Get(t.Lit.Var)
			if t.Lit.Neg {
				val = !val
			}
			if val {
				sum += t.Coef
			}
		}
		if sum < c.Bound {
			tag := c.Tag
			if tag == "" {
				tag = fmt.Sprintf("constraint#%d", i)
			}
			bad = append(bad, tag)
		}
	}
	return bad
}
