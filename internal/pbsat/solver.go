package pbsat

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
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
	order   []Lit    // sorted by priority desc, then variable asc
	keys    []uint64 // packed sort keys
	scratch []uint64 // radix sort's second buffer
	pos     int
}

// NewDensePriorityBranching returns an empty branching with buffers
// sized for n variables, ready for SetDense.
func NewDensePriorityBranching(n int) *PriorityBranching {
	return &PriorityBranching{
		order:   make([]Lit, 0, n),
		keys:    make([]uint64, 0, n),
		scratch: make([]uint64, 0, n),
	}
}

// SetDense rebuilds the decision order in place from dense per-variable
// slices: entry i holds the priority and preferred polarity of variable
// i+1. It reuses the branching's buffers, so steady-state calls do not
// allocate. The order is deterministic: priority descending, ties
// broken by ascending variable. A radix sort of packed keys does nearly
// all of it: each key is the priority's bits, mapped so that ascending
// keys mean descending priorities, with the low bits.Len(n) bits
// replaced by i. Priorities that differ only in those low bits then tie
// and fall back to i, and +0 and −0 get different keys though they tie,
// so an exact insertion pass finishes the order; it moves only those
// rare pairs.
func (b *PriorityBranching) SetDense(priority []float64, preferTrue []bool) {
	n := len(priority)
	low := uint64(1)<<bits.Len(uint(n)) - 1
	b.keys = b.keys[:0]
	for i, p := range priority {
		key := math.Float64bits(p)
		if key>>63 == 0 {
			key = ^key &^ (1 << 63) // non-negative: larger p, smaller key
		}
		b.keys = append(b.keys, key&^low|uint64(i))
	}
	b.radixSort()
	keys := b.keys
	for i := 1; i < n; i++ {
		for j := i; j > 0; j-- {
			x, y := keys[j]&low, keys[j-1]&low
			if priority[x] < priority[y] || priority[x] == priority[y] && x > y {
				break
			}
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	b.order = b.order[:0]
	for _, key := range keys {
		i := int(key & low)
		b.order = append(b.order, Lit{Var: Var(i + 1), Neg: !preferTrue[i]})
	}
	b.pos = 0
}

// radixSort sorts b.keys ascending: a least-significant-digit radix
// sort over 8-bit digits that skips every digit all keys share. Each
// pass scatters into b.scratch and the two buffers swap roles.
func (b *PriorityBranching) radixSort() {
	if len(b.keys) == 0 {
		return
	}
	b.scratch = slices.Grow(b.scratch[:0], len(b.keys))[:len(b.keys)]
	var differ uint64
	for _, k := range b.keys {
		differ |= k ^ b.keys[0]
	}
	var start [256]int
	for shift := 0; shift < 64; shift += 8 {
		if differ>>shift&0xff == 0 {
			continue
		}
		start = [256]int{}
		for _, k := range b.keys {
			start[byte(k>>shift)]++
		}
		sum := 0
		for d, c := range start {
			start[d] = sum
			sum += c
		}
		for _, k := range b.keys {
			d := byte(k >> shift)
			b.scratch[start[d]] = k
			start[d]++
		}
		b.keys, b.scratch = b.scratch, b.keys
	}
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
	// Solver is built, and are not counted here. Without a conflict the
	// implications are a fixpoint and their count is fixed; a conflict
	// stops a cascade part way, so how many it assigned first depends
	// on the propagation order and may change with the solver's
	// internals.
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

// occurrence is one (cardinality, term) incidence of a literal: the
// cardinality whose counter drops by coef when the literal becomes
// false.
type occurrence struct {
	ci   int32
	coef int32
}

// index is the read-only half of the solver. One index per Problem is
// shared by all its Solvers (see Problem.solverIndex); it is presolved
// at the root:
//
//   - rootVals, rootFree and maxPossible hold the decision-level-0
//     propagation fixpoint, the state every Solve starts from by copy;
//   - only the constraints that fixpoint leaves unsatisfied ("live")
//     are kept, each with just the terms still unassigned at the root;
//   - a live constraint that any one of its live terms satisfies is a
//     clause: with two terms it becomes a pair of implications, longer
//     ones are watched; every other live constraint is a cardinality
//     and keeps a slack counter, renumbered densely.
//
// The search below the root never unassigns a root-fixed variable, and a
// constraint already satisfied at the root can never force a literal or
// conflict, so dropping both changes no decision, conflict or model.
//
// Per-literal tables are indexed by the literal's slot, lit + nVars.
type index struct {
	// rootConflict is set when propagation at the root already
	// conflicts: the problem is UNSAT and nothing else is kept.
	rootConflict bool

	// rootVals holds each literal's root value by slot, laid out like
	// Solver.vals: 1=true, -1=false, 0=free. Its positive half,
	// rootVals[nVars+1:], is the root assignment indexed var-1.
	rootVals []int8
	// rootFree is the first variable (var-1) free at the root, or nVars.
	rootFree int

	// binLits[binStart[k]:binStart[k+1]] are the literals implied when
	// the literal of slot k becomes true, one per binary clause holding
	// its complement.
	binStart []int32
	binLits  []int32
	// Long clause ci is clauseLits[clauseStart[ci]:clauseStart[ci+1]].
	// Each Solver watches the first two literals of its own copy; the
	// watch list of slot k starts at watchStart[k] in the Solver's
	// arena, with room for every long-clause position of that literal.
	clauseStart []int32
	clauseLits  []int32
	watchStart  []int32

	maxPossible []int64 // per cardinality: Σ coef over terms not false at the root
	bounds      []int64 // per cardinality
	maxCoef     []int64 // per cardinality: largest indexed term weight, to skip no-op scans

	// Cardinality ci's terms are terms[termStart[ci]:termStart[ci+1]].
	termStart []int32
	terms     []term
	// The cardinality terms of the literal of slot k are
	// occs[occStart[k]:occStart[k+1]], in cardinality order, so an
	// assignment updates exactly the counters whose slack it shrinks, and
	// wakes only those cardinalities.
	occStart []int32
	occs     []occurrence
}

// rawIndex indexes every constraint of p as a cardinality with every
// variable free: the unpresolved input of the root pass.
func rawIndex(p *Problem) *index {
	n := len(p.constraints)
	ix := &index{
		rootVals:    make([]int8, 2*p.NumVars()+1),
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
	ix.indexLiterals(nil)
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
		// Nothing is searched, so the index covers no variable: its
		// rootVals is the slot-0 sentinel alone.
		return &index{rootConflict: true, rootVals: []int8{0}}
	}
	ix := &index{
		rootVals:    root.vals,
		rootFree:    len(root.assign),
		clauseStart: []int32{0},
		termStart:   []int32{0},
	}
	if i := slices.Index(root.assign, 0); i >= 0 {
		ix.rootFree = i
	}
	var binaries [][2]int32
	var live []term
	for ci, bound := range raw.bounds {
		need := bound
		live = live[:0]
		for _, t := range raw.terms[raw.termStart[ci]:raw.termStart[ci+1]] {
			switch root.value(t.lit) {
			case 1:
				need -= int64(t.coef)
			case 0:
				live = append(live, t)
			}
		}
		if need <= 0 {
			continue // satisfied at the root
		}
		minCoef, maxCoef := int64(math.MaxInt64), int64(0)
		for _, t := range live {
			minCoef = min(minCoef, int64(t.coef))
			maxCoef = max(maxCoef, int64(t.coef))
		}
		switch {
		case minCoef >= need && len(live) == 2:
			binaries = append(binaries, [2]int32{live[0].lit, live[1].lit})
		case minCoef >= need:
			// The root fixpoint forces a clause's last live term, so a
			// clause left live has at least two.
			for _, t := range live {
				ix.clauseLits = append(ix.clauseLits, t.lit)
			}
			ix.clauseStart = append(ix.clauseStart, int32(len(ix.clauseLits)))
		default:
			ix.terms = append(ix.terms, live...)
			ix.bounds = append(ix.bounds, bound)
			ix.maxPossible = append(ix.maxPossible, root.maxPossible[ci])
			ix.maxCoef = append(ix.maxCoef, maxCoef)
			ix.termStart = append(ix.termStart, int32(len(ix.terms)))
		}
	}
	ix.indexLiterals(binaries)
	return ix
}

// indexLiterals builds the per-literal tables: the implication lists of
// the binary clauses, the watch-list offsets of the long clauses and the
// occurrence lists of the cardinality terms.
func (ix *index) indexLiterals(binaries [][2]int32) {
	n := int32(ix.numVars())
	slots := 2*int(n) + 1
	ix.binStart = make([]int32, slots+1)
	ix.watchStart = make([]int32, slots+1)
	ix.occStart = make([]int32, slots+1)
	for _, b := range binaries {
		ix.binStart[-b[0]+n+1]++
		ix.binStart[-b[1]+n+1]++
	}
	for _, l := range ix.clauseLits {
		ix.watchStart[l+n+1]++
	}
	for _, t := range ix.terms {
		ix.occStart[t.lit+n+1]++
	}
	for k := 1; k <= slots; k++ {
		ix.binStart[k] += ix.binStart[k-1]
		ix.watchStart[k] += ix.watchStart[k-1]
		ix.occStart[k] += ix.occStart[k-1]
	}
	next := slices.Clone(ix.binStart[:slots])
	ix.binLits = make([]int32, 2*len(binaries))
	for _, b := range binaries {
		ix.binLits[next[-b[0]+n]] = b[1]
		next[-b[0]+n]++
		ix.binLits[next[-b[1]+n]] = b[0]
		next[-b[1]+n]++
	}
	next = slices.Clone(ix.occStart[:slots])
	ix.occs = make([]occurrence, len(ix.terms))
	for ci := 0; ci+1 < len(ix.termStart); ci++ {
		for _, t := range ix.terms[ix.termStart[ci]:ix.termStart[ci+1]] {
			ix.occs[next[t.lit+n]] = occurrence{ci: int32(ci), coef: t.coef}
			next[t.lit+n]++
		}
	}
}

// numVars returns the number of variables the index covers.
func (ix *index) numVars() int { return len(ix.rootVals) / 2 }

// Solver runs chronological DPLL with unit propagation over its
// Problem's shared, root-presolved index: binary clauses through
// implication lists, longer clauses under two watched literals, and
// cardinalities through slack counters maintained incrementally on
// assign and unassign. A Solver owns only mutable search state, and
// every Solve starts from the root fixpoint, copied in from the index,
// so one Solver serves many Solve calls (the SAT-decoding hot loop).
// It is not safe for concurrent use; Solvers of one Problem may run
// concurrently.
type Solver struct {
	// MaxConflicts bounds the search (0 = 1,000,000).
	MaxConflicts int

	ix *index

	nVars int32
	// vals holds each literal's value by slot: 1=true, -1=false,
	// 0=unassigned. assign aliases its positive half, indexed var-1.
	vals   []int8
	assign []int8
	trail  []int32 // literals made true below the root, in order
	// qhead is how much of the trail has had its clauses propagated.
	qhead int

	// clauseLits is this Solver's copy of the long clauses; the first
	// two literals of each are its watches. Slot k's watch list is
	// watches[ix.watchStart[k]:][:watchLen[k]], holding clause numbers.
	// Watches stay valid across backtracking, so nothing restores them.
	clauseLits []int32
	watchLen   []int32
	watches    []int32

	// maxPossible[ci] is the current Σ coef over cardinality ci's terms
	// whose literal is not yet false.
	maxPossible []int64

	inQueue []bool  // cardinality index -> queued for recheck
	queue   []int32 // recheck worklist

	// free is the fallback decision cursor: every variable below it is
	// assigned. Solve starts it at the root's first free variable, and
	// backtrack lowers it.
	free int
	// full has one bit per block of 64 variables (var-1 >> 6), set when
	// the fallback scan has seen the whole block assigned. Assignments
	// keep a block full; backtrack clears the bit of every block it
	// unassigns a variable in, and Solve's reset clears them all. The
	// scan skips full blocks instead of rereading their bytes.
	full []uint64

	stack    []decision // reusable decision stack
	modelBuf Assignment // backs Result.Model across calls
}

// NewSolver prepares a solver for the problem. The problem's solver
// index is built and presolved on the first call and shared by every
// later Solver until the problem changes.
func NewSolver(p *Problem) *Solver { return newSolver(p.solverIndex()) }

func newSolver(ix *index) *Solver {
	n := ix.numVars()
	s := &Solver{
		MaxConflicts: 1_000_000,
		ix:           ix,
		nVars:        int32(n),
		vals:         slices.Clone(ix.rootVals),
		clauseLits:   slices.Clone(ix.clauseLits),
		watchLen:     make([]int32, len(ix.watchStart)),
		watches:      make([]int32, len(ix.clauseLits)),
		maxPossible:  slices.Clone(ix.maxPossible),
		inQueue:      make([]bool, len(ix.bounds)),
		free:         ix.rootFree,
		full:         make([]uint64, (n+64*64-1)/(64*64)),
	}
	s.assign = s.vals[n+1:]
	for ci := 0; ci+1 < len(ix.clauseStart); ci++ {
		first := ix.clauseStart[ci]
		s.watch(int32(ci), s.clauseLits[first])
		s.watch(int32(ci), s.clauseLits[first+1])
	}
	return s
}

// watch appends long clause ci to the watch list of lit.
func (s *Solver) watch(ci, lit int32) {
	k := lit + s.nVars
	s.watches[s.ix.watchStart[k]+s.watchLen[k]] = ci
	s.watchLen[k]++
}

func (s *Solver) value(lit int32) int8 { return s.vals[lit+s.nVars] }

// assignLit records the assignment on the trail, updates the slack
// counters of every cardinality a falsified term belongs to, and wakes
// those cardinalities. Cardinalities where the literal became true are
// not queued: their slack is unchanged, so no new propagation or
// conflict can arise from them. Clauses see the literal when propagate
// reaches it on the trail.
func (s *Solver) assignLit(lit int32) {
	s.vals[s.nVars+lit], s.vals[s.nVars-lit] = 1, -1
	s.trail = append(s.trail, lit)
	k := s.nVars - lit
	for _, o := range s.ix.occs[s.ix.occStart[k]:s.ix.occStart[k+1]] {
		s.maxPossible[o.ci] -= int64(o.coef)
		if !s.inQueue[o.ci] {
			s.inQueue[o.ci] = true
			s.queue = append(s.queue, o.ci)
		}
	}
}

// backtrack undoes the trail down to length n, restoring the slack
// counters. Watched clauses need no undo: only the propagation head
// moves back.
func (s *Solver) backtrack(n int) {
	for len(s.trail) > n {
		lit := s.trail[len(s.trail)-1]
		s.trail = s.trail[:len(s.trail)-1]
		s.vals[s.nVars+lit], s.vals[s.nVars-lit] = 0, 0
		k := s.nVars - lit
		for _, o := range s.ix.occs[s.ix.occStart[k]:s.ix.occStart[k+1]] {
			s.maxPossible[o.ci] += int64(o.coef)
		}
		v := max(lit, -lit) - 1
		s.free = min(s.free, int(v))
		s.full[v>>12] &^= 1 << (v >> 6 & 63)
	}
	s.qhead = min(s.qhead, n)
}

// propagate runs unit propagation to a fixpoint or a conflict. It first
// drains the trail from qhead: each literal made true fires the binary
// clauses of its complement through the implication list, then visits
// the long clauses watching its complement. Once the trail is drained
// it rechecks one queued cardinality: only cardinalities whose slack
// shrank are queued, and a cardinality's terms are scanned only when
// its largest weight exceeds the current slack (otherwise nothing can
// be forced). It returns false on conflict, with the queue cleared,
// since backtracking re-seeds from the flipped decision's assignment.
// Either way the queue is empty when it returns, which is what lets
// Solve reset to the root without touching it.
func (s *Solver) propagate(res *Result) bool {
	ix := s.ix
	for {
		for s.qhead < len(s.trail) {
			lit := s.trail[s.qhead]
			s.qhead++
			k := lit + s.nVars
			for _, l := range ix.binLits[ix.binStart[k]:ix.binStart[k+1]] {
				switch s.value(l) {
				case 0:
					s.assignLit(l)
					res.Propagated++
				case -1:
					return s.conflict()
				}
			}
			if !s.visitWatches(-lit, res) {
				return s.conflict()
			}
		}
		if len(s.queue) == 0 {
			return true
		}
		ci := s.queue[len(s.queue)-1]
		s.queue = s.queue[:len(s.queue)-1]
		s.inQueue[ci] = false
		slack := s.maxPossible[ci] - ix.bounds[ci]
		if slack < 0 {
			return s.conflict()
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
}

// visitWatches visits the long clauses watching falseLit, a literal
// that just became false. A clause whose other watch is true stays put; one
// with another non-false literal moves this watch there; otherwise its
// other watch is forced, or, if that is false too, the clause
// conflicts and visitWatches returns false.
func (s *Solver) visitWatches(falseLit int32, res *Result) bool {
	ix := s.ix
	k := falseLit + s.nVars
	ws := s.watches[ix.watchStart[k]:][:s.watchLen[k]]
	kept := 0
next:
	for i, ci := range ws {
		lits := s.clauseLits[ix.clauseStart[ci]:ix.clauseStart[ci+1]]
		if lits[0] == falseLit {
			lits[0], lits[1] = lits[1], lits[0]
		}
		other := lits[0]
		if s.value(other) <= 0 {
			for j := 2; j < len(lits); j++ {
				if s.value(lits[j]) >= 0 {
					lits[1], lits[j] = lits[j], falseLit
					s.watch(ci, lits[1])
					continue next
				}
			}
			if s.value(other) < 0 {
				kept += copy(ws[kept:], ws[i:])
				s.watchLen[k] = int32(kept)
				return false
			}
			s.assignLit(other)
			res.Propagated++
		}
		ws[kept] = ci
		kept++
	}
	s.watchLen[k] = int32(kept)
	return true
}

// conflict clears the cardinality queue and reports the conflict.
func (s *Solver) conflict() bool {
	for _, qi := range s.queue {
		s.inQueue[qi] = false
	}
	s.queue = s.queue[:0]
	return false
}

// decision is one entry of the chronological decision stack.
type decision struct {
	trailLen int
	lit      Lit
	flipped  bool
}

// Solve searches for a model, deciding variables in the order supplied
// by branch (nil uses plain first-unassigned/false-first). The search
// starts from the root fixpoint, so the same Solver can serve many
// Solve calls without reallocating its state.
//
// The reset copies the root values and counters in. That is the state
// backtrack(0) would reach, since nothing else needs restoring: every
// Solve returns with the cardinality queue empty (propagate drains it
// or clears it on conflict), and the watches stay valid under any
// backtrack.
func (s *Solver) Solve(branch Branching) Result {
	if s.ix.rootConflict {
		// The first propagation, before any decision, conflicts.
		return Result{Conflicts: 1}
	}
	res := Result{}
	copy(s.vals, s.ix.rootVals)
	copy(s.maxPossible, s.ix.maxPossible)
	s.trail = s.trail[:0]
	s.qhead = 0
	s.free = s.ix.rootFree
	clear(s.full)
	if pb, ok := branch.(*PriorityBranching); ok {
		if pb == nil {
			branch = nil // a typed nil is no branching
		} else {
			pb.Reset()
		}
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
				// Branching returned an assigned var despite the filter:
				// a broken Branching, not a search state to recover from.
				panic(fmt.Sprintf("pbsat: branching returned assigned variable x%d", int(l.Var)))
			}
			return l, true
		}
	}
	for n := len(s.assign); s.free < n; {
		b := s.free >> 6
		end := min((b+1)<<6, n)
		if s.full[b>>6]&(1<<(b&63)) != 0 {
			s.free = end
			continue
		}
		for ; s.free < end; s.free++ {
			if s.assign[s.free] == 0 {
				return Lit{Var: Var(s.free + 1), Neg: true}, true
			}
		}
		// Everything below free is assigned, so the whole block is.
		s.full[b>>6] |= 1 << (b & 63)
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
