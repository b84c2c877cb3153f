// Package pbsat implements a small pseudo-Boolean constraint solver:
// linear 0/1 constraints (the ILP of the paper's Section III-C) solved
// by DPLL search with unit propagation and an externally supplied
// decision order. Constraints that reduce to clauses propagate through
// binary implication lists and two watched literals; the remaining
// cardinality constraints keep slack counters.
//
// The external decision order is the heart of SAT-decoding
// (Lukasiewycz et al.): the evolutionary optimizer evolves variable
// priorities and preferred polarities; the solver turns every genotype
// into a *feasible* implementation by construction, searching near the
// genotype first.
package pbsat

import (
	"fmt"
	"sync"
)

// Var is a 1-based Boolean variable index.
type Var int

// Lit is a possibly negated variable.
type Lit struct {
	Var Var
	Neg bool
}

// Pos returns the positive literal of v.
func Pos(v Var) Lit { return Lit{Var: v} }

// Not returns the negated literal of v.
func Not(v Var) Lit { return Lit{Var: v, Neg: true} }

// Negated returns the complement literal.
func (l Lit) Negated() Lit { return Lit{Var: l.Var, Neg: !l.Neg} }

// String renders the literal like "x3" or "~x3".
func (l Lit) String() string {
	if l.Neg {
		return fmt.Sprintf("~x%d", int(l.Var))
	}
	return fmt.Sprintf("x%d", int(l.Var))
}

// Term is one weighted literal of a constraint.
type Term struct {
	Coef int
	Lit  Lit
}

// Constraint is a normalized pseudo-Boolean constraint
// Σ Coef_i · Lit_i ≥ Bound with all coefficients positive.
type Constraint struct {
	Terms []Term
	Bound int
	Tag   string // optional origin label for diagnostics
}

// Problem is a conjunction of pseudo-Boolean constraints over numbered
// variables. Building a Problem is not safe for concurrent use, nor
// concurrent with NewSolver; once built, any number of goroutines may
// call NewSolver on it.
type Problem struct {
	names       []string
	constraints []Constraint

	// ix is the presolved solver index every Solver shares. NewSolver
	// builds it on first use, under ixMu so concurrent first calls build
	// it once; any change to the problem drops it.
	ixMu sync.Mutex
	ix   *index
}

// solverIndex returns the problem's solver index, building it on first
// use.
func (p *Problem) solverIndex() *index {
	p.ixMu.Lock()
	defer p.ixMu.Unlock()
	if p.ix == nil {
		p.ix = presolve(p)
	}
	return p.ix
}

// NewProblem returns an empty problem.
func NewProblem() *Problem { return &Problem{} }

// NewVar allocates a fresh variable with a debugging name.
func (p *Problem) NewVar(name string) Var {
	p.names = append(p.names, name)
	p.ix = nil
	return Var(len(p.names))
}

// NumVars returns the number of allocated variables.
func (p *Problem) NumVars() int { return len(p.names) }

// Name returns the debugging name of v.
func (p *Problem) Name(v Var) string {
	if v < 1 || int(v) > len(p.names) {
		return fmt.Sprintf("x%d", int(v))
	}
	return p.names[v-1]
}

// NumConstraints returns the number of stored (normalized) constraints.
func (p *Problem) NumConstraints() int { return len(p.constraints) }

// Constraints exposes the normalized constraint slice (read-only use).
func (p *Problem) Constraints() []Constraint { return p.constraints }

// AddGE adds Σ coef_i·lit_i ≥ bound. Coefficients may be negative or
// zero; the constraint is normalized to positive coefficients by
// flipping literals (a·l ≡ a − a·¬l). Trivially true constraints are
// dropped; trivially false ones are kept and will make the problem
// unsatisfiable.
func (p *Problem) AddGE(terms []Term, bound int, tag string) {
	var norm []Term
	for _, t := range terms {
		switch {
		case t.Coef == 0:
			// drop
		case t.Coef > 0:
			norm = append(norm, t)
		default:
			// a·l with a<0: substitute l = 1 − ¬l.
			norm = append(norm, Term{Coef: -t.Coef, Lit: t.Lit.Negated()})
			bound -= t.Coef // bound − a (a negative → bound grows)
		}
	}
	c := Constraint{Terms: norm, Bound: bound, Tag: tag}
	if bound <= 0 {
		return // always satisfied
	}
	p.constraints = append(p.constraints, c)
	p.ix = nil
}

// AddLE adds Σ coef_i·lit_i ≤ bound via negation.
func (p *Problem) AddLE(terms []Term, bound int, tag string) {
	neg := make([]Term, len(terms))
	for i, t := range terms {
		neg[i] = Term{Coef: -t.Coef, Lit: t.Lit}
	}
	p.AddGE(neg, -bound, tag)
}

// AddEQ adds Σ coef_i·lit_i = bound as a GE/LE pair.
func (p *Problem) AddEQ(terms []Term, bound int, tag string) {
	p.AddGE(terms, bound, tag)
	p.AddLE(terms, bound, tag)
}

// AddClause adds the disjunction of the literals (at least one true).
func (p *Problem) AddClause(tag string, lits ...Lit) {
	terms := make([]Term, len(lits))
	for i, l := range lits {
		terms[i] = Term{Coef: 1, Lit: l}
	}
	p.AddGE(terms, 1, tag)
}

// AtMostOne constrains at most one of the literals to be true.
func (p *Problem) AtMostOne(tag string, lits ...Lit) {
	terms := make([]Term, len(lits))
	for i, l := range lits {
		terms[i] = Term{Coef: 1, Lit: l}
	}
	p.AddLE(terms, 1, tag)
}

// ExactlyOne constrains exactly one of the literals to be true.
func (p *Problem) ExactlyOne(tag string, lits ...Lit) {
	terms := make([]Term, len(lits))
	for i, l := range lits {
		terms[i] = Term{Coef: 1, Lit: l}
	}
	p.AddEQ(terms, 1, tag)
}

// Implies adds a → b.
func (p *Problem) Implies(a, b Lit, tag string) {
	p.AddClause(tag, a.Negated(), b)
}

// Equiv adds a ↔ b.
func (p *Problem) Equiv(a, b Lit, tag string) {
	p.Implies(a, b, tag)
	p.Implies(b, a, tag)
}
