package pbsat

import (
	"slices"
	"testing"
)

// FuzzSolveVerify decodes an arbitrary byte string into a PB problem
// and cross-checks the solver against the problem's own Verify: every
// model returned as SAT must satisfy every constraint, and the solver
// must agree with the recompute-from-scratch oracle on the verdict, the
// search statistics and the model. It solves twice on one Solver, the
// second time with a branching drawn from the input, so the second
// search starts from the watches the first one moved. Runs as a
// regression test over the seed corpus under plain `go test`.
func FuzzSolveVerify(f *testing.F) {
	f.Add([]byte{3, 2, 1, 0, 5, 2, 1, 1, 6, 2})
	f.Add([]byte{5, 10, 200, 3, 7, 9, 11, 13, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{1, 1, 0, 255})
	f.Add([]byte{})
	// Unit clauses, so the root presolve fixes variables and drops
	// constraints: x2; ~x2 | x3; x3 | x4 | x1 (satisfied at the root).
	f.Add([]byte{3, 0, 5, 1, 1, 1, 5, 0x81, 5, 2, 1, 2, 5, 2, 5, 3, 5, 0, 1})
	// x2 and ~x2: a root conflict.
	f.Add([]byte{3, 0, 5, 1, 1, 0, 5, 0x81, 1})
	// 2·x1 ≥ 2 fixes x1; x1 + 2·x2 + 2·x3 ≥ 3 stays live with the
	// terms of x2 and x3 only.
	f.Add([]byte{2, 0, 6, 0, 2, 2, 5, 0, 6, 1, 6, 2, 3})
	// x1 ∨ x1: a duplicated literal.
	f.Add([]byte{1, 1, 5, 0, 5, 0, 1})
	// x1 ∨ ~x1: a tautology.
	f.Add([]byte{1, 1, 5, 0, 5, 0x80, 1})
	// x1; x1 + x2 + x3 ≥ 2: the root-true x1 turns the cardinality into
	// the clause x2 ∨ x3.
	f.Add([]byte{2, 0, 5, 0, 1, 2, 5, 0, 5, 1, 5, 2, 2})
	// x1∨x2∨x3∨x4, x1∨x2∨x5, x1∨x2∨~x5: deciding x1 and x2 false moves
	// the long clause's watches to x3 and x4 and conflicts; after the
	// backtrack, falsifying x3 must move its watch back to x2.
	f.Add([]byte{4, 3, 5, 0, 5, 1, 5, 2, 5, 3, 1, 2, 5, 0, 5, 1, 5, 4, 1, 2, 5, 0, 5, 1, 5, 0x81, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		p, ok := problemFromBytes(data)
		if !ok {
			return
		}
		s := NewSolver(p)
		s.MaxConflicts = 10_000
		solveAndCompare := func(branch Branching) {
			t.Helper()
			res := s.Solve(branch)
			if res.SAT {
				if bad := p.Verify(res.Model); len(bad) != 0 {
					t.Fatalf("SAT model violates %v", bad)
				}
			}
			ref := newRefSolver(p)
			ref.maxConflicts = 10_000
			want := ref.solve(branch)
			if res.SAT != want.SAT || res.Aborted != want.Aborted ||
				res.Conflicts != want.Conflicts || res.Decisions != want.Decisions {
				t.Fatalf("solver (SAT=%v aborted=%v c=%d d=%d) disagrees with oracle (SAT=%v aborted=%v c=%d d=%d)",
					res.SAT, res.Aborted, res.Conflicts, res.Decisions, want.SAT, want.Aborted, want.Conflicts, want.Decisions)
			}
			if res.SAT && !slices.Equal(res.Model, want.Model) {
				t.Fatalf("solver model %v differs from oracle model %v", res.Model, want.Model)
			}
		}
		solveAndCompare(nil)
		solveAndCompare(branchingFromBytes(p.NumVars(), data))
	})
}

// branchingFromBytes derives a dense branching over variables
// 1..nVars from the fuzz input, read backwards: a byte's high seven
// bits are the priority, so ties are common, and its low bit the
// preferred polarity.
func branchingFromBytes(nVars int, data []byte) *PriorityBranching {
	prio := make([]float64, nVars)
	pref := make([]bool, nVars)
	for i := range prio {
		b := data[len(data)-1-i%len(data)]
		prio[i], pref[i] = float64(b>>1), b&1 == 1
	}
	b := NewDensePriorityBranching(nVars)
	b.SetDense(prio, pref)
	return b
}

// problemFromBytes deterministically builds a small PB problem from a
// fuzz byte stream: byte 0 picks the variable count, then groups of
// bytes become weighted literals and bounds. Returns ok=false for
// streams too short to describe a problem.
func problemFromBytes(data []byte) (*Problem, bool) {
	if len(data) < 4 {
		return nil, false
	}
	nVars := 1 + int(data[0]%12)
	p := NewProblem()
	for i := 0; i < nVars; i++ {
		p.NewVar("v")
	}
	i := 1
	for i+2 < len(data) && p.NumConstraints() < 16 {
		nTerms := 1 + int(data[i]%uint8(nVars))
		i++
		var terms []Term
		for t := 0; t < nTerms && i+1 < len(data); t++ {
			coef := int(data[i]%9) - 4 // [-4, 4], zeros dropped by AddGE
			v := Var(int(data[i+1])%nVars + 1)
			neg := data[i+1]&0x80 != 0
			terms = append(terms, Term{Coef: coef, Lit: Lit{Var: v, Neg: neg}})
			i += 2
		}
		if len(terms) == 0 || i >= len(data) {
			break
		}
		bound := int(data[i] % 16)
		kind := data[i] / 16 % 3
		i++
		switch kind {
		case 0:
			p.AddGE(terms, bound, "ge")
		case 1:
			p.AddLE(terms, bound, "le")
		default:
			p.AddEQ(terms, bound, "eq")
		}
	}
	if p.NumConstraints() == 0 {
		return nil, false
	}
	return p, true
}
