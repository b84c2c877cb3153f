package pbsat

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// refSolver is the pre-counter propagation engine kept verbatim as a
// test oracle: propagate recomputes every touched constraint's
// maxPossible from its terms, and every constraint mentioning a freshly
// assigned variable is re-queued. The Solver, with its watched clauses
// and cardinality counters, must agree with it verdict-for-verdict,
// model-for-model and count-for-count —
// that equivalence is what makes the optimization invisible to the
// deterministic decode pipeline.
type refSolver struct {
	p            *Problem
	maxConflicts int

	assign  []int8
	trail   []Var
	occurs  [][]int32
	inQueue []bool
	queue   []int32
}

func newRefSolver(p *Problem) *refSolver {
	s := &refSolver{
		p:            p,
		maxConflicts: 1_000_000,
		assign:       make([]int8, p.NumVars()),
		occurs:       make([][]int32, p.NumVars()),
		inQueue:      make([]bool, len(p.constraints)),
	}
	for ci := range p.constraints {
		for _, t := range p.constraints[ci].Terms {
			v := int(t.Lit.Var) - 1
			s.occurs[v] = append(s.occurs[v], int32(ci))
		}
	}
	return s
}

func (s *refSolver) value(l Lit) int8 {
	v := s.assign[l.Var-1]
	if l.Neg {
		return -v
	}
	return v
}

func (s *refSolver) assignLit(l Lit) {
	val := int8(1)
	if l.Neg {
		val = -1
	}
	s.assign[l.Var-1] = val
	s.trail = append(s.trail, l.Var)
	for _, ci := range s.occurs[l.Var-1] {
		if !s.inQueue[ci] {
			s.inQueue[ci] = true
			s.queue = append(s.queue, ci)
		}
	}
}

func (s *refSolver) enqueueAll() {
	s.queue = s.queue[:0]
	for ci := range s.p.constraints {
		s.inQueue[ci] = true
		s.queue = append(s.queue, int32(ci))
	}
}

func (s *refSolver) propagate(res *Result) bool {
	for len(s.queue) > 0 {
		ci := s.queue[len(s.queue)-1]
		s.queue = s.queue[:len(s.queue)-1]
		s.inQueue[ci] = false
		c := &s.p.constraints[ci]
		maxPossible := 0
		for _, t := range c.Terms {
			if s.value(t.Lit) >= 0 {
				maxPossible += t.Coef
			}
		}
		if maxPossible < c.Bound {
			for _, qi := range s.queue {
				s.inQueue[qi] = false
			}
			s.queue = s.queue[:0]
			s.inQueue[ci] = false
			return false
		}
		slack := maxPossible - c.Bound
		for _, t := range c.Terms {
			if s.value(t.Lit) == 0 && t.Coef > slack {
				s.assignLit(t.Lit)
				res.Propagated++
			}
		}
	}
	return true
}

func (s *refSolver) solve(branch Branching) Result {
	res := Result{}
	for i := range s.assign {
		s.assign[i] = 0
	}
	s.trail = s.trail[:0]
	s.enqueueAll()
	if pb, ok := branch.(*PriorityBranching); ok {
		pb.Reset()
	}
	isAssigned := func(v Var) bool { return s.assign[v-1] != 0 }

	var stack []decision
	for {
		ok := s.propagate(&res)
		if ok {
			l, any := s.nextDecision(branch, isAssigned)
			if !any {
				res.SAT = true
				res.Model = make(Assignment, len(s.assign))
				for i, v := range s.assign {
					res.Model[i] = v > 0
				}
				return res
			}
			stack = append(stack, decision{trailLen: len(s.trail), lit: l})
			s.assignLit(l)
			res.Decisions++
			continue
		}
		res.Conflicts++
		if res.Conflicts > s.maxConflicts {
			res.Aborted = true
			return res
		}
		flipped := false
		for len(stack) > 0 {
			top := &stack[len(stack)-1]
			for len(s.trail) > top.trailLen {
				v := s.trail[len(s.trail)-1]
				s.trail = s.trail[:len(s.trail)-1]
				s.assign[v-1] = 0
			}
			if !top.flipped {
				top.flipped = true
				top.lit = top.lit.Negated()
				s.assignLit(top.lit)
				flipped = true
				break
			}
			stack = stack[:len(stack)-1]
		}
		if !flipped {
			return res
		}
	}
}

func (s *refSolver) nextDecision(branch Branching, isAssigned func(Var) bool) (Lit, bool) {
	if branch != nil {
		if l, ok := branch.Next(isAssigned); ok {
			return l, true
		}
	}
	for i, v := range s.assign {
		if v == 0 {
			return Lit{Var: Var(i + 1), Neg: true}, true
		}
	}
	return Lit{}, false
}

// randomProblem builds a random small PB problem plus a random priority
// branching over its variables, mirroring the brute-force test's
// generator but with more terms so counters actually matter.
func randomProblem(rng *rand.Rand) (*Problem, *PriorityBranching) {
	nVars := 3 + rng.Intn(10)
	p := NewProblem()
	vars := make([]Var, nVars)
	for i := range vars {
		vars[i] = p.NewVar("v")
	}
	nCons := 1 + rng.Intn(8)
	for c := 0; c < nCons; c++ {
		nTerms := 1 + rng.Intn(nVars)
		terms := make([]Term, nTerms)
		maxSum := 0
		for i := range terms {
			coef := 1 + rng.Intn(6)
			if rng.Intn(4) == 0 {
				coef = -coef
			}
			terms[i] = Term{Coef: coef, Lit: Lit{Var: vars[rng.Intn(nVars)], Neg: rng.Intn(2) == 0}}
			if coef > 0 {
				maxSum += coef
			}
		}
		bound := rng.Intn(maxSum + 2)
		switch rng.Intn(3) {
		case 0:
			p.AddGE(terms, bound, "ge")
		case 1:
			p.AddLE(terms, bound, "le")
		default:
			p.AddEQ(terms, bound, "eq")
		}
	}
	var br *PriorityBranching
	if rng.Intn(2) == 0 {
		br = randomBranching(rng, nVars)
	}
	return p, br
}

// randomClauseProblem builds a random clause-heavy problem: binary,
// ternary and 3–8-literal clauses, some with a duplicated (x∨x) or
// complementary (x∨¬x) literal, AtMostOne and ExactlyOne groups,
// x+y+z ≥ 2 cardinalities that a root-true term turns into clauses,
// and a few unit clauses. It is dense enough that most searches
// conflict and backtrack, which moves watches and rewinds the
// propagation head.
func randomClauseProblem(rng *rand.Rand) (*Problem, *PriorityBranching) {
	nVars := 4 + rng.Intn(11)
	p := NewProblem()
	for i := 0; i < nVars; i++ {
		p.NewVar("v")
	}
	lit := func() Lit { return Lit{Var: Var(1 + rng.Intn(nVars)), Neg: rng.Intn(2) == 0} }
	lits := func(n int) []Lit {
		ls := make([]Lit, n)
		for i := range ls {
			switch r := rng.Intn(12); {
			case i > 0 && r == 0:
				ls[i] = ls[rng.Intn(i)]
			case i > 0 && r == 1:
				ls[i] = ls[rng.Intn(i)].Negated()
			default:
				ls[i] = lit()
			}
		}
		return ls
	}
	nCons := nVars + rng.Intn(2*nVars)
	for c := 0; c < nCons; c++ {
		switch r := rng.Intn(20); {
		case r == 0:
			p.AddClause("unit", lit())
		case r < 7:
			p.AddClause("binary", lits(2)...)
		case r < 11:
			p.AddClause("ternary", lits(3)...)
		case r < 15:
			p.AddClause("long", lits(3+rng.Intn(6))...)
		case r < 17:
			p.AtMostOne("amo", lits(2+rng.Intn(4))...)
		case r < 18:
			p.ExactlyOne("exactly-one", lits(2+rng.Intn(4))...)
		default:
			var terms []Term
			for _, l := range lits(3 + rng.Intn(3)) {
				terms = append(terms, Term{Coef: 1, Lit: l})
			}
			p.AddGE(terms, 2, "at-least-two")
		}
	}
	var br *PriorityBranching
	if rng.Intn(2) == 0 {
		br = randomBranching(rng, nVars)
	}
	return p, br
}

// randomBranching draws a priority and a preferred polarity for each of
// the variables 1..nVars.
func randomBranching(rng *rand.Rand, nVars int) *PriorityBranching {
	prio := make([]float64, nVars)
	pref := make([]bool, nVars)
	for i := range prio {
		prio[i] = rng.Float64()
		pref[i] = rng.Intn(2) == 0
	}
	b := NewDensePriorityBranching(nVars)
	b.SetDense(prio, pref)
	return b
}

// problemGenerators are the random problem families of the
// differential tests: general PB constraints, and clause-heavy problems
// for the implication lists and watched clauses. Each test seeds family
// i with its own seed + i, so the general rounds stay what they were.
var problemGenerators = []struct {
	name string
	gen  func(*rand.Rand) (*Problem, *PriorityBranching)
}{
	{"pb", randomProblem},
	{"clauses", randomClauseProblem},
}

// TestCounterPropagationMatchesReference is the differential test: the
// solver and the recompute-from-scratch oracle must agree on verdict,
// model, and search statistics across randomized problems of both
// families, with and without priority branching.
func TestCounterPropagationMatchesReference(t *testing.T) {
	for gi, g := range problemGenerators {
		rng := rand.New(rand.NewSource(77 + int64(gi)))
		for round := 0; round < 500; round++ {
			p, br := g.gen(rng)
			// Avoid a typed-nil Branching interface when no branching rolled.
			var branch Branching
			if br != nil {
				branch = br
			}
			got := NewSolver(p).Solve(branch)
			if err := agreeWithRef(p, branch, got); err != nil {
				t.Fatalf("%s round %d: %v", g.name, round, err)
			}
		}
	}
}

// agreeWithRef solves p with the oracle and reports how got differs
// from it. Propagated is not compared: how many literals a conflicting
// cascade assigns before the conflict is detected depends on the
// propagation order (the oracle's queue against the Solver's
// implication lists, watches and cardinality queue) and is rewound
// anyway, and the Solver does not count the root implications; the
// search trajectory — decisions and conflicts — is the deterministic
// invariant.
func agreeWithRef(p *Problem, branch Branching, got Result) error {
	want := newRefSolver(p).solve(branch)
	if got.SAT != want.SAT || got.Aborted != want.Aborted {
		return fmt.Errorf("verdict (SAT=%v aborted=%v), oracle (SAT=%v aborted=%v)",
			got.SAT, got.Aborted, want.SAT, want.Aborted)
	}
	if got.Decisions != want.Decisions || got.Conflicts != want.Conflicts {
		return fmt.Errorf("stats (d=%d c=%d), oracle (d=%d c=%d)",
			got.Decisions, got.Conflicts, want.Decisions, want.Conflicts)
	}
	if got.SAT {
		if !slices.Equal(got.Model, want.Model) {
			return fmt.Errorf("model %v, oracle %v", got.Model, want.Model)
		}
		if bad := p.Verify(got.Model); len(bad) != 0 {
			return fmt.Errorf("model violates %v", bad)
		}
	}
	return nil
}

// TestRootConflictMatchesReference: a problem whose root propagation
// conflicts is UNSAT after exactly one conflict and no decision, on
// every Solve of every Solver.
func TestRootConflictMatchesReference(t *testing.T) {
	p := NewProblem()
	a, b, c := p.NewVar("a"), p.NewVar("b"), p.NewVar("c")
	p.AddClause("a", Pos(a))
	p.Implies(Pos(a), Pos(b), "a->b")
	p.Implies(Pos(b), Not(a), "b->~a")
	p.AddClause("b|c", Pos(b), Pos(c))
	s := NewSolver(p)
	for i := 0; i < 2; i++ {
		got := s.Solve(nil)
		if got.SAT || got.Aborted || got.Conflicts != 1 || got.Decisions != 0 {
			t.Fatalf("solve %d: %+v, want UNSAT after 1 conflict", i, got)
		}
		if err := agreeWithRef(p, nil, got); err != nil {
			t.Fatalf("solve %d: %v", i, err)
		}
	}
}

// TestFullyDecidedAtRoot: when root propagation assigns every variable,
// the presolved index keeps no constraint and Solve returns the model
// without a decision.
func TestFullyDecidedAtRoot(t *testing.T) {
	p := NewProblem()
	vars := make([]Var, 6)
	for i := range vars {
		vars[i] = p.NewVar("v")
	}
	p.AddClause("v1", Pos(vars[0]))
	for i := 1; i < len(vars); i++ {
		// Alternate polarities so both propagation directions run.
		p.AddClause("chain", Not(vars[i-1]), Lit{Var: vars[i], Neg: i%2 == 0})
		p.AddClause("chain", Pos(vars[i-1]), Pos(vars[i]))
	}
	p.AddGE([]Term{{Coef: 2, Lit: Pos(vars[1])}, {Coef: 1, Lit: Pos(vars[3])}}, 3, "pb")
	if n := len(p.solverIndex().bounds); n != 0 {
		t.Fatalf("presolved index keeps %d constraints, want 0", n)
	}
	s := NewSolver(p)
	for i := 0; i < 2; i++ {
		got := s.Solve(nil)
		if !got.SAT || got.Decisions != 0 || got.Conflicts != 0 {
			t.Fatalf("solve %d: %+v, want SAT with no search", i, got)
		}
		if err := agreeWithRef(p, nil, got); err != nil {
			t.Fatalf("solve %d: %v", i, err)
		}
	}
}

// TestProblemChangeAfterNewSolver: a constraint or variable added after
// a NewSolver must be seen by the next NewSolver, which rebuilds the
// presolved index.
func TestProblemChangeAfterNewSolver(t *testing.T) {
	p := NewProblem()
	a, b := p.NewVar("a"), p.NewVar("b")
	p.AddClause("a|b", Pos(a), Pos(b))
	first := NewSolver(p).Solve(nil)
	if err := agreeWithRef(p, nil, first); err != nil {
		t.Fatal(err)
	}
	if first.Model.Get(a) || !first.Model.Get(b) {
		t.Fatalf("first model %v, want a=false b=true", first.Model)
	}

	p.AddClause("~b", Not(b))
	got := NewSolver(p).Solve(nil)
	if err := agreeWithRef(p, nil, got); err != nil {
		t.Fatal(err)
	}
	if !got.SAT || !got.Model.Get(a) || got.Model.Get(b) {
		t.Fatalf("after AddClause: %+v, want a=true b=false", got)
	}

	c := p.NewVar("c")
	p.Implies(Pos(a), Pos(c), "a->c")
	got = NewSolver(p).Solve(nil)
	if err := agreeWithRef(p, nil, got); err != nil {
		t.Fatal(err)
	}
	if len(got.Model) != 3 || !got.Model.Get(c) {
		t.Fatalf("after NewVar: model %v, want c=true", got.Model)
	}
}

// TestConcurrentSolversShareIndex builds and uses Solvers of one
// Problem from several goroutines at once: the first NewSolver calls
// race to build the shared index, and every Solve must still match the
// oracle. Run under -race.
func TestConcurrentSolversShareIndex(t *testing.T) {
	for gi, g := range problemGenerators {
		rng := rand.New(rand.NewSource(3 + int64(gi)))
		for round := 0; round < 20; round++ {
			p, _ := g.gen(rng)
			branches := make([]*PriorityBranching, 8)
			for i := range branches {
				branches[i] = randomBranching(rng, p.NumVars())
			}
			results := make([][2]Result, len(branches))
			var wg sync.WaitGroup
			for i, br := range branches {
				wg.Add(1)
				go func() {
					defer wg.Done()
					s := NewSolver(p)
					results[i][0] = s.Solve(nil)
					results[i][0].Model = slices.Clone(results[i][0].Model)
					results[i][1] = s.Solve(br)
				}()
			}
			wg.Wait()
			for i, br := range branches {
				if err := agreeWithRef(p, nil, results[i][0]); err != nil {
					t.Fatalf("%s round %d goroutine %d, no branching: %v", g.name, round, i, err)
				}
				if err := agreeWithRef(p, br, results[i][1]); err != nil {
					t.Fatalf("%s round %d goroutine %d, branching: %v", g.name, round, i, err)
				}
			}
		}
	}
}

// TestSolverReuseMatchesFresh pins the state-reset contract: a single
// Solver solving a sequence of problems-with-branchings must return
// exactly what a fresh Solver returns at every step, and what the
// oracle returns. A reused Solver starts each search from the watches
// the previous searches left behind.
func TestSolverReuseMatchesFresh(t *testing.T) {
	for gi, g := range problemGenerators {
		rng := rand.New(rand.NewSource(99 + int64(gi)))
		for round := 0; round < 50; round++ {
			p, _ := g.gen(rng)
			reused := NewSolver(p)
			for i := 0; i < 4; i++ {
				var br Branching
				if i%2 == 1 {
					br = randomBranching(rng, p.NumVars())
				}
				got := reused.Solve(br)
				if err := agreeWithRef(p, br, got); err != nil {
					t.Fatalf("%s round %d call %d: reused: %v", g.name, round, i, err)
				}
				want := NewSolver(p).Solve(br)
				if got.SAT != want.SAT || got.Decisions != want.Decisions || got.Conflicts != want.Conflicts {
					t.Fatalf("%s round %d call %d: reused (SAT=%v d=%d c=%d), fresh (SAT=%v d=%d c=%d)",
						g.name, round, i, got.SAT, got.Decisions, got.Conflicts, want.SAT, want.Decisions, want.Conflicts)
				}
				if got.SAT {
					for j := range got.Model {
						if got.Model[j] != want.Model[j] {
							t.Fatalf("%s round %d call %d: model differs at x%d", g.name, round, i, j+1)
						}
					}
				}
			}
		}
	}
}

// TestSolverReuseAfterAbortAndUNSAT pins what Solve's reset by copy
// relies on: every Solve returns with the cardinality queue drained,
// aborted and UNSAT calls included, since the reset does not touch the
// queue. Each round solves once under a one-conflict limit, which
// aborts any search reaching a second conflict, and then twice with
// the default limit on the same Solver; those two calls must match a
// fresh Solver and the oracle. Both families abort and prove UNSAT
// often enough that every case precedes a checked call.
func TestSolverReuseAfterAbortAndUNSAT(t *testing.T) {
	for gi, g := range problemGenerators {
		rng := rand.New(rand.NewSource(41 + int64(gi)))
		aborted, unsat := 0, 0
		for round := 0; round < 300; round++ {
			p, br := g.gen(rng)
			s := NewSolver(p)
			s.MaxConflicts = 1
			var branch Branching
			if br != nil {
				branch = br
			}
			first := s.Solve(branch)
			fresh := NewSolver(p)
			fresh.MaxConflicts = 1
			want := fresh.Solve(branch)
			if first.SAT != want.SAT || first.Aborted != want.Aborted ||
				first.Decisions != want.Decisions || first.Conflicts != want.Conflicts {
				t.Fatalf("%s round %d: limited solve %+v, fresh %+v", g.name, round, first, want)
			}
			if err := queueDrained(s); err != nil {
				t.Fatalf("%s round %d: after the limited solve: %v", g.name, round, err)
			}
			if first.Aborted {
				aborted++
			}
			s.MaxConflicts = 0
			prev := first
			for call := 1; call <= 2; call++ {
				if !prev.SAT && !prev.Aborted {
					unsat++
				}
				next := randomBranching(rng, p.NumVars())
				got := s.Solve(next)
				if err := queueDrained(s); err != nil {
					t.Fatalf("%s round %d call %d: %v", g.name, round, call, err)
				}
				if err := agreeWithRef(p, next, got); err != nil {
					t.Fatalf("%s round %d call %d: %v", g.name, round, call, err)
				}
				want := NewSolver(p).Solve(next)
				if got.SAT != want.SAT || got.Decisions != want.Decisions || got.Conflicts != want.Conflicts ||
					!slices.Equal(got.Model, want.Model) {
					t.Fatalf("%s round %d call %d: reused (SAT=%v d=%d c=%d), fresh (SAT=%v d=%d c=%d)",
						g.name, round, call, got.SAT, got.Decisions, got.Conflicts, want.SAT, want.Decisions, want.Conflicts)
				}
				prev = got
			}
		}
		if aborted == 0 || unsat == 0 {
			t.Fatalf("%s: %d aborted and %d UNSAT calls preceded a checked call; want both", g.name, aborted, unsat)
		}
	}
}

// queueDrained reports a cardinality left queued or marked queued.
func queueDrained(s *Solver) error {
	if len(s.queue) != 0 {
		return fmt.Errorf("%d cardinalities left queued", len(s.queue))
	}
	if ci := slices.Index(s.inQueue, true); ci >= 0 {
		return fmt.Errorf("cardinality %d still marked queued", ci)
	}
	return nil
}

// TestSetDenseMatchesMapConstructor pins the dense-branching rebuild
// against an exact comparison sort (priority descending, ties by
// variable). Fixed cases come first: zero, one and two variables; all
// priorities equal (with fewer than 256 variables their keys differ
// only in the lowest byte); priorities that differ in a single byte, so
// the radix sort skips every other digit; and negative priorities mixed
// with non-negative ones. Random rounds follow: small coarse priorities
// that force ties, then up to 4,096 variables, including priorities
// that differ only in the low mantissa bits the packed sort keys give
// over to the variable index.
func TestSetDenseMatchesMapConstructor(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	dense := NewDensePriorityBranching(0)
	check := func(name string, prio []float64, pref []bool) {
		t.Helper()
		n := len(prio)
		dense.SetDense(prio, pref)
		want := make([]Lit, n)
		for i := range want {
			want[i] = Lit{Var: Var(i + 1), Neg: !pref[i]}
		}
		slices.SortFunc(want, func(a, b Lit) int {
			if pa, pb := prio[a.Var-1], prio[b.Var-1]; pa != pb {
				if pa > pb {
					return -1
				}
				return 1
			}
			return int(a.Var) - int(b.Var)
		})
		if !slices.Equal(dense.order, want) {
			t.Fatalf("%s (n=%d): dense order differs from the exact sort", name, n)
		}
	}
	fill := func(n int, p func(i int) float64) ([]float64, []bool) {
		prio := make([]float64, n)
		pref := make([]bool, n)
		for i := range prio {
			prio[i] = p(i)
			pref[i] = rng.Intn(2) == 0
		}
		return prio, pref
	}

	for n := 0; n <= 2; n++ {
		prio, pref := fill(n, func(int) float64 { return rng.Float64() })
		check(fmt.Sprintf("%d variables", n), prio, pref)
		prio, pref = fill(n, func(int) float64 { return 0.25 })
		check(fmt.Sprintf("%d equal", n), prio, pref)
	}
	for _, n := range []int{200, 1716} {
		prio, pref := fill(n, func(int) float64 { return 0.25 })
		check("all equal", prio, pref)
	}
	base := math.Float64bits(0.3)
	for shift := 8; shift < 64; shift += 8 {
		prio, pref := fill(200, func(int) float64 {
			return math.Float64frombits(base&^(0xff<<shift) | uint64(rng.Intn(256))<<shift)
		})
		check(fmt.Sprintf("one byte at bit %d", shift), prio, pref)
	}
	for _, n := range []int{3, 200, 1716} {
		prio, pref := fill(n, func(i int) float64 {
			if i%7 == 0 {
				return 0 // and some negative zeros, which tie with it
			}
			return rng.NormFloat64()
		})
		for i := 14; i < n; i += 28 {
			prio[i] = math.Copysign(0, -1)
		}
		check("mixed signs", prio, pref)
	}

	for round := 0; round < 160; round++ {
		n := 1 + rng.Intn(20)
		if round >= 100 {
			n = 1 + rng.Intn(4096)
		}
		prio, pref := fill(n, func(int) float64 {
			switch {
			case round < 100 || round%3 == 0:
				return float64(rng.Intn(4)) // coarse: force ties
			case round%3 == 1:
				return rng.Float64()
			default:
				// One of 0.5's nearest 64 neighbours, apart only in the
				// low mantissa bits; some signed to cover the whole key.
				p := math.Float64frombits(math.Float64bits(0.5) + uint64(rng.Intn(64)))
				if rng.Intn(8) == 0 {
					p = -p
				}
				return p
			}
		})
		check(fmt.Sprintf("round %d", round), prio, pref)
	}
}

// TestSetDenseSteadyStateAllocs: rebuilding the order of a branching
// sized for the problem, the per-decode path, allocates nothing.
func TestSetDenseSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	const n = 1716
	prio := make([]float64, n)
	pref := make([]bool, n)
	b := NewDensePriorityBranching(n)
	allocs := testing.AllocsPerRun(20, func() {
		for i := range prio {
			prio[i], pref[i] = rng.Float64(), rng.Intn(2) == 0
		}
		b.SetDense(prio, pref)
	})
	if allocs != 0 {
		t.Fatalf("SetDense allocates %.1f times per call, want 0", allocs)
	}
}

// TestSolveTypedNilBranching: a nil *PriorityBranching passed as a
// Branching means no branching, exactly like Solve(nil).
func TestSolveTypedNilBranching(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for round := 0; round < 50; round++ {
		p, _ := randomClauseProblem(rng)
		var pb *PriorityBranching
		got := NewSolver(p).Solve(pb)
		want := NewSolver(p).Solve(nil)
		if got.SAT != want.SAT || got.Aborted != want.Aborted || got.Decisions != want.Decisions ||
			got.Conflicts != want.Conflicts || got.Propagated != want.Propagated || !slices.Equal(got.Model, want.Model) {
			t.Fatalf("round %d: Solve(typed nil) = %+v, Solve(nil) = %+v", round, got, want)
		}
	}
}
