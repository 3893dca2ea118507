package model

import (
	"fmt"
	"sort"
	"strings"
)

// Term is one affine term: Coef * iterator(Var).
type Term struct {
	Var  string
	Coef int
}

// Expr is an affine expression over loop iterators:
// Const + sum of Coef_i * Var_i. Terms are kept sorted by variable
// name with no duplicates and no zero coefficients, so expressions
// have a canonical form and compare well.
type Expr struct {
	Const int
	Terms []Term
}

// ConstExpr returns the constant expression c.
func ConstExpr(c int) Expr { return Expr{Const: c} }

// Idx returns the expression that is just the iterator v.
func Idx(v string) Expr { return Expr{Terms: []Term{{Var: v, Coef: 1}}} }

// IdxC returns the expression coef*v.
func IdxC(coef int, v string) Expr {
	if coef == 0 {
		return Expr{}
	}
	return Expr{Terms: []Term{{Var: v, Coef: coef}}}
}

// Affine builds const + sum(terms), normalizing the result. Terms
// already in normal form (sorted by name, no duplicates, no zero
// coefficients) — the form every encoded expression carries — are
// copied as they are.
func Affine(c int, terms ...Term) Expr {
	e := Expr{Const: c, Terms: append([]Term(nil), terms...)}
	if normal(terms) {
		return e
	}
	return e.normalize()
}

// normal reports whether terms are sorted by strictly increasing name
// with no zero coefficient.
func normal(terms []Term) bool {
	for i, t := range terms {
		if t.Coef == 0 || i > 0 && terms[i-1].Var >= t.Var {
			return false
		}
	}
	return true
}

// normalize sorts terms, merges duplicates and drops zero
// coefficients.
func (e Expr) normalize() Expr {
	if len(e.Terms) == 0 {
		return e
	}
	sum := make(map[string]int, len(e.Terms))
	for _, t := range e.Terms {
		sum[t.Var] += t.Coef
	}
	vars := make([]string, 0, len(sum))
	for v, c := range sum {
		if c != 0 {
			vars = append(vars, v)
		}
	}
	sort.Strings(vars)
	terms := make([]Term, len(vars))
	for i, v := range vars {
		terms[i] = Term{Var: v, Coef: sum[v]}
	}
	return Expr{Const: e.Const, Terms: terms}
}

// Plus returns e + o.
func (e Expr) Plus(o Expr) Expr {
	r := Expr{
		Const: e.Const + o.Const,
		Terms: append(append([]Term(nil), e.Terms...), o.Terms...),
	}
	return r.normalize()
}

// PlusConst returns e + c.
func (e Expr) PlusConst(c int) Expr {
	e.Terms = append([]Term(nil), e.Terms...)
	e.Const += c
	return e
}

// Scale returns k*e.
func (e Expr) Scale(k int) Expr {
	if k == 0 {
		return Expr{}
	}
	terms := make([]Term, len(e.Terms))
	for i, t := range e.Terms {
		terms[i] = Term{Var: t.Var, Coef: t.Coef * k}
	}
	return Expr{Const: e.Const * k, Terms: terms}
}

// Coef returns the coefficient of iterator v (0 if absent).
func (e Expr) Coef(v string) int {
	for _, t := range e.Terms {
		if t.Var == v {
			return t.Coef
		}
	}
	return 0
}

// Vars returns the iterator names with non-zero coefficients, sorted.
func (e Expr) Vars() []string {
	vars := make([]string, 0, len(e.Terms))
	for _, t := range e.Terms {
		if t.Coef != 0 {
			vars = append(vars, t.Var)
		}
	}
	sort.Strings(vars)
	return vars
}

// Eval evaluates the expression for the given iterator values.
// Iterators missing from env evaluate as 0.
func (e Expr) Eval(env map[string]int) int {
	v := e.Const
	for _, t := range e.Terms {
		v += t.Coef * env[t.Var]
	}
	return v
}

// Range returns the minimum and maximum value of the expression when
// every iterator v in trips ranges over 0..trips[v]-1 and every other
// iterator is fixed at 0.
func (e Expr) Range(trips map[string]int) (min, max int) {
	min, max = e.Const, e.Const
	for _, t := range e.Terms {
		trip, ok := trips[t.Var]
		if !ok || trip <= 1 {
			continue
		}
		span := t.Coef * (trip - 1)
		if span >= 0 {
			max += span
		} else {
			min += span
		}
	}
	return min, max
}

// Equal reports whether two expressions are identical after
// normalization.
func (e Expr) Equal(o Expr) bool {
	a, b := e.normalize(), o.normalize()
	if a.Const != b.Const || len(a.Terms) != len(b.Terms) {
		return false
	}
	for i := range a.Terms {
		if a.Terms[i] != b.Terms[i] {
			return false
		}
	}
	return true
}

// String renders the expression, e.g. "2*i + j + 3".
func (e Expr) String() string {
	n := e.normalize()
	var parts []string
	for _, t := range n.Terms {
		switch t.Coef {
		case 1:
			parts = append(parts, t.Var)
		case -1:
			parts = append(parts, "-"+t.Var)
		default:
			parts = append(parts, fmt.Sprintf("%d*%s", t.Coef, t.Var))
		}
	}
	if n.Const != 0 || len(parts) == 0 {
		parts = append(parts, fmt.Sprintf("%d", n.Const))
	}
	s := strings.Join(parts, " + ")
	return strings.ReplaceAll(s, "+ -", "- ")
}
