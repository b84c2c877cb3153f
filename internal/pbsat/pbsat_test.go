package pbsat

import (
	"math/rand"
	"testing"
)

func TestLitBasics(t *testing.T) {
	l := Pos(3)
	if l.String() != "x3" || l.Negated().String() != "~x3" {
		t.Fatalf("lit rendering: %v %v", l, l.Negated())
	}
	if Not(3) != (Lit{Var: 3, Neg: true}) {
		t.Fatal("Not wrong")
	}
}

func TestSimpleSAT(t *testing.T) {
	p := NewProblem()
	a := p.NewVar("a")
	b := p.NewVar("b")
	p.AddClause("a|b", Pos(a), Pos(b))
	p.AddClause("~a", Not(a))
	res := NewSolver(p).Solve(nil)
	if !res.SAT {
		t.Fatal("unsat")
	}
	if res.Model.Get(a) || !res.Model.Get(b) {
		t.Fatalf("model = %v", res.Model)
	}
	if bad := p.Verify(res.Model); len(bad) != 0 {
		t.Fatalf("verify = %v", bad)
	}
}

func TestSimpleUNSAT(t *testing.T) {
	p := NewProblem()
	a := p.NewVar("a")
	p.AddClause("a", Pos(a))
	p.AddClause("~a", Not(a))
	res := NewSolver(p).Solve(nil)
	if res.SAT || res.Aborted {
		t.Fatalf("res = %+v, want clean UNSAT", res)
	}
}

func TestExactlyOne(t *testing.T) {
	p := NewProblem()
	vars := make([]Var, 5)
	lits := make([]Lit, 5)
	for i := range vars {
		vars[i] = p.NewVar("v")
		lits[i] = Pos(vars[i])
	}
	p.ExactlyOne("eo", lits...)
	res := NewSolver(p).Solve(nil)
	if !res.SAT {
		t.Fatal("unsat")
	}
	count := 0
	for _, v := range vars {
		if res.Model.Get(v) {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("exactly-one violated: %d true", count)
	}
}

func TestPBBound(t *testing.T) {
	// 2a + 3b + 4c >= 6 with a forced false: needs b and c.
	p := NewProblem()
	a, b, c := p.NewVar("a"), p.NewVar("b"), p.NewVar("c")
	p.AddGE([]Term{{2, Pos(a)}, {3, Pos(b)}, {4, Pos(c)}}, 6, "ge6")
	p.AddClause("~a", Not(a))
	res := NewSolver(p).Solve(nil)
	if !res.SAT {
		t.Fatal("unsat")
	}
	if !res.Model.Get(b) || !res.Model.Get(c) {
		t.Fatalf("model = %v, want b,c true", res.Model)
	}
}

func TestNegativeCoefficientNormalization(t *testing.T) {
	// a - b >= 0 means b → a.
	p := NewProblem()
	a, b := p.NewVar("a"), p.NewVar("b")
	p.AddGE([]Term{{1, Pos(a)}, {-1, Pos(b)}}, 0, "a-b>=0")
	p.AddClause("b", Pos(b))
	res := NewSolver(p).Solve(nil)
	if !res.SAT || !res.Model.Get(a) {
		t.Fatalf("res = %+v", res)
	}
}

func TestAddLEAndEQ(t *testing.T) {
	p := NewProblem()
	vars := make([]Var, 4)
	terms := make([]Term, 4)
	for i := range vars {
		vars[i] = p.NewVar("v")
		terms[i] = Term{Coef: 1, Lit: Pos(vars[i])}
	}
	p.AddEQ(terms, 2, "eq2")
	res := NewSolver(p).Solve(nil)
	if !res.SAT {
		t.Fatal("unsat")
	}
	n := 0
	for _, v := range vars {
		if res.Model.Get(v) {
			n++
		}
	}
	if n != 2 {
		t.Fatalf("eq2 violated: %d", n)
	}
}

func TestImpliesEquiv(t *testing.T) {
	p := NewProblem()
	a, b, c := p.NewVar("a"), p.NewVar("b"), p.NewVar("c")
	p.Implies(Pos(a), Pos(b), "a->b")
	p.Equiv(Pos(b), Pos(c), "b<->c")
	p.AddClause("a", Pos(a))
	res := NewSolver(p).Solve(nil)
	if !res.SAT || !res.Model.Get(b) || !res.Model.Get(c) {
		t.Fatalf("res = %+v", res)
	}
}

func TestPriorityBranchingSteersModel(t *testing.T) {
	// a|b with no other constraints: whichever variable gets priority
	// and polarity true must be chosen.
	for _, prefer := range []int{1, 2} {
		p := NewProblem()
		a := p.NewVar("a")
		b := p.NewVar("b")
		p.AddClause("a|b", Pos(a), Pos(b))
		// Entry i is variable i+1: a, then b.
		prio, pref := []float64{0, 0}, []bool{false, false}
		chosen := Var(prefer)
		prio[chosen-1] = 10
		pref[chosen-1] = true
		br := NewDensePriorityBranching(2)
		br.SetDense(prio, pref)
		res := NewSolver(p).Solve(br)
		if !res.SAT {
			t.Fatal("unsat")
		}
		if !res.Model.Get(chosen) {
			t.Fatalf("prefer %v: model %v did not honor priority", chosen, res.Model)
		}
	}
}

func TestPriorityBranchingReusable(t *testing.T) {
	p := NewProblem()
	a := p.NewVar("a")
	p.AddClause("a", Pos(a))
	br := NewDensePriorityBranching(1)
	br.SetDense([]float64{1}, []bool{true})
	s := NewSolver(p)
	for i := 0; i < 3; i++ {
		if res := s.Solve(br); !res.SAT {
			t.Fatalf("round %d unsat", i)
		}
	}
}

// TestAgainstBruteForce compares SAT/UNSAT verdicts with exhaustive
// enumeration on random small PB problems.
func TestAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for round := 0; round < 200; round++ {
		nVars := 3 + rng.Intn(6)
		p := NewProblem()
		vars := make([]Var, nVars)
		for i := range vars {
			vars[i] = p.NewVar("v")
		}
		nCons := 1 + rng.Intn(6)
		for c := 0; c < nCons; c++ {
			nTerms := 1 + rng.Intn(nVars)
			terms := make([]Term, nTerms)
			maxSum := 0
			for i := range terms {
				coef := 1 + rng.Intn(4)
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
		res := NewSolver(p).Solve(nil)
		want := bruteForceSAT(p, nVars)
		if res.Aborted {
			t.Fatalf("round %d aborted", round)
		}
		if res.SAT != want {
			t.Fatalf("round %d: solver %v, brute force %v", round, res.SAT, want)
		}
		if res.SAT {
			if bad := p.Verify(res.Model); len(bad) != 0 {
				t.Fatalf("round %d: model violates %v", round, bad)
			}
		}
	}
}

func bruteForceSAT(p *Problem, nVars int) bool {
	a := make(Assignment, nVars)
	for m := 0; m < 1<<uint(nVars); m++ {
		for i := 0; i < nVars; i++ {
			a[i] = m>>uint(i)&1 == 1
		}
		if len(p.Verify(a)) == 0 {
			return true
		}
	}
	return false
}

func TestVerifyReportsTags(t *testing.T) {
	p := NewProblem()
	a := p.NewVar("a")
	p.AddClause("needsA", Pos(a))
	bad := p.Verify(Assignment{false})
	if len(bad) != 1 || bad[0] != "needsA" {
		t.Fatalf("bad = %v", bad)
	}
}

func TestConflictLimitAborts(t *testing.T) {
	// Pigeonhole PHP(5,4): 5 pigeons in 4 holes — hard for DPLL without
	// learning; with a tiny conflict budget it must abort, not hang.
	p := NewProblem()
	n, m := 5, 4
	holeVars := make([][]Var, n)
	for i := range holeVars {
		holeVars[i] = make([]Var, m)
		lits := make([]Lit, m)
		for j := range holeVars[i] {
			holeVars[i][j] = p.NewVar("p")
			lits[j] = Pos(holeVars[i][j])
		}
		p.AddClause("pigeon", lits...)
	}
	for j := 0; j < m; j++ {
		lits := make([]Lit, n)
		for i := 0; i < n; i++ {
			lits[i] = Pos(holeVars[i][j])
		}
		p.AtMostOne("hole", lits...)
	}
	s := NewSolver(p)
	s.MaxConflicts = 10
	res := s.Solve(nil)
	if res.SAT {
		t.Fatal("pigeonhole satisfied")
	}
	// Either proven UNSAT within 10 conflicts or aborted — both fine,
	// but it must terminate (this test hanging is the failure mode).
}

func TestProblemNames(t *testing.T) {
	p := NewProblem()
	v := p.NewVar("hello")
	if p.Name(v) != "hello" || p.Name(Var(99)) == "hello" {
		t.Fatal("names wrong")
	}
	if p.NumVars() != 1 {
		t.Fatal("NumVars wrong")
	}
}
