// Package citeexpr defines citation expressions: the abstract-syntax trees
// built from the paper's four operators — joint use `·`, alternative
// bindings `+`, alternative rewritings `+R`, and result-level aggregation
// `Agg`. A leaf is a citation atom CV(p1,…,pk): the citation query of a
// view instantiated with parameter values.
//
// Expressions are a *formal* representation (paper §2: "this is a formal
// semantics, not a means of computation"). The citation engine computes
// with a flat form instead — per answer tuple, a run of monomials of
// interned atom ids (package citation's branch tables, which package
// policy evaluates) — and builds these trees from it only when a library
// caller asks for them. Package policy also interprets the trees under
// owner-chosen combination functions.
package citeexpr

import (
	"sort"
	"strings"

	"repro/internal/semiring"
	"repro/internal/value"
)

// Expr is a citation expression node.
type Expr interface {
	// Canonical renders a normalized, deterministic encoding used for
	// equality and deduplication.
	Canonical() string
	// String renders the expression in the paper's notation.
	String() string
	isExpr()
}

// Atom is an instantiated citation reference CV(p1,…,pk) for a view: the
// view's citation, parameterized by the λ-parameter values of one binding.
// Unparameterized views yield atoms with empty Params (written CV).
type Atom struct {
	View   string
	Params []value.Value
}

func (Atom) isExpr() {}

// String renders CV(p1,…,pk), or just CV when unparameterized.
func (a Atom) String() string {
	if len(a.Params) == 0 {
		return "C" + a.View
	}
	parts := make([]string, len(a.Params))
	for i, p := range a.Params {
		parts[i] = p.String()
		// Quoting a string that holds a separator or a quote keeps the
		// rendering injective: CV('a,b', c) and CV(a, 'b,c') differ.
		if p.Kind() == value.KindString && strings.ContainsAny(parts[i], ",()'") {
			parts[i] = p.Quote()
		}
	}
	return "C" + a.View + "(" + strings.Join(parts, ",") + ")"
}

// Canonical returns the deterministic encoding of the atom.
func (a Atom) Canonical() string { return a.String() }

// Key returns a map key identifying the atom (view + parameter values).
func (a Atom) Key() string { return a.Canonical() }

// Joint is the `·` operator: joint use of citations within one binding of
// one rewriting (Definition 2.1). An empty Joint is the neutral citation
// (contributes nothing).
type Joint struct{ Children []Expr }

func (Joint) isExpr() {}

// String renders c1·c2·…·cn.
func (j Joint) String() string { return renderNary(j.Children, "·", "1") }

// Canonical returns the normalized encoding (children sorted, flattened).
func (j Joint) Canonical() string { return canonNary("J", flatten(j.Children, isJoint)) }

// Alt is the `+` operator: alternative citations arising from multiple
// bindings of a single rewriting (Definition 2.2). An empty Alt denotes
// the absent citation (no derivation).
type Alt struct{ Children []Expr }

func (Alt) isExpr() {}

// String renders c1 + c2 + … + cn.
func (a Alt) String() string { return renderNary(a.Children, " + ", "0") }

// Canonical returns the normalized encoding.
func (a Alt) Canonical() string { return canonNary("A", flatten(a.Children, isAlt)) }

// AltR is the `+R` operator: alternative citations arising from distinct
// rewritings of the query. The combination function for +R may differ from
// the one for + (paper §2), e.g. minimum estimated size.
type AltR struct{ Children []Expr }

func (AltR) isExpr() {}

// String renders c1 +R c2 +R … with parenthesized children.
func (a AltR) String() string {
	if len(a.Children) == 0 {
		return "0R"
	}
	parts := make([]string, len(a.Children))
	for i, c := range a.Children {
		parts[i] = "(" + c.String() + ")"
	}
	return strings.Join(parts, " +R ")
}

// Canonical returns the normalized encoding.
func (a AltR) Canonical() string { return canonNary("R", flatten(a.Children, isAltR)) }

// Agg aggregates the citations of all result tuples into the citation of
// the query answer (paper §2, the abstract function Agg).
type Agg struct{ Children []Expr }

func (Agg) isExpr() {}

// String renders Agg{c1, c2, …}.
func (a Agg) String() string {
	parts := make([]string, len(a.Children))
	for i, c := range a.Children {
		parts[i] = c.String()
	}
	return "Agg{" + strings.Join(parts, ", ") + "}"
}

// Canonical returns the normalized encoding.
func (a Agg) Canonical() string { return canonNary("G", flatten(a.Children, isAgg)) }

func isJoint(e Expr) ([]Expr, bool) {
	if j, ok := e.(Joint); ok {
		return j.Children, true
	}
	return nil, false
}

func isAlt(e Expr) ([]Expr, bool) {
	if a, ok := e.(Alt); ok {
		return a.Children, true
	}
	return nil, false
}

func isAltR(e Expr) ([]Expr, bool) {
	if a, ok := e.(AltR); ok {
		return a.Children, true
	}
	return nil, false
}

func isAgg(e Expr) ([]Expr, bool) {
	if a, ok := e.(Agg); ok {
		return a.Children, true
	}
	return nil, false
}

// flatten inlines nested nodes of the same operator.
func flatten(children []Expr, same func(Expr) ([]Expr, bool)) []Expr {
	var out []Expr
	for _, c := range children {
		if nested, ok := same(c); ok {
			out = append(out, flatten(nested, same)...)
			continue
		}
		out = append(out, c)
	}
	return out
}

func renderNary(children []Expr, sep, empty string) string {
	if len(children) == 0 {
		return empty
	}
	parts := make([]string, len(children))
	for i, c := range children {
		s := c.String()
		// Parenthesize sums under products for readability.
		if sep == "·" {
			if _, isSum := c.(Alt); isSum {
				s = "(" + s + ")"
			}
		}
		parts[i] = s
	}
	return strings.Join(parts, sep)
}

func canonNary(tag string, children []Expr) string {
	parts := make([]string, len(children))
	for i, c := range children {
		parts[i] = c.Canonical()
	}
	sort.Strings(parts)
	return tag + "(" + strings.Join(parts, ",") + ")"
}

// Equal reports whether two expressions are equal up to flattening and
// child reordering.
func Equal(a, b Expr) bool { return a.Canonical() == b.Canonical() }

// VisitAtoms walks the expression and invokes fn for every atom
// occurrence (duplicates included), allocating nothing. Consumers that
// need distinct atoms deduplicate on Atom.Key themselves; Atoms and Size
// are built on it.
func VisitAtoms(e Expr, fn func(Atom)) {
	switch n := e.(type) {
	case Atom:
		fn(n)
	case Joint:
		for _, c := range n.Children {
			VisitAtoms(c, fn)
		}
	case Alt:
		for _, c := range n.Children {
			VisitAtoms(c, fn)
		}
	case AltR:
		for _, c := range n.Children {
			VisitAtoms(c, fn)
		}
	case Agg:
		for _, c := range n.Children {
			VisitAtoms(c, fn)
		}
	}
}

// Atoms returns the distinct atoms of the expression in deterministic
// order.
func Atoms(e Expr) []Atom {
	seen := make(map[string]Atom)
	VisitAtoms(e, func(a Atom) { seen[a.Key()] = a })
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]Atom, 0, len(keys))
	for _, k := range keys {
		out = append(out, seen[k])
	}
	return out
}

// Size returns the number of distinct atoms in the expression — the
// paper's "estimated size" of a citation (§2 closing example: the
// parameterized rewriting has size ∝ |Family|, the unparameterized one has
// size 1). It deduplicates through a small scratch slice instead of a map:
// +R branch selection calls it per tuple, and citation expressions rarely
// hold more than a handful of distinct atoms.
func Size(e Expr) int {
	var keys []string
	VisitAtoms(e, func(a Atom) {
		k := a.Key()
		for _, s := range keys {
			if s == k {
				return
			}
		}
		keys = append(keys, k)
	})
	return len(keys)
}

// Semiring adapts citation expressions to the semiring interface so the
// annotated evaluator can propagate them: Plus is `+` (alternative
// bindings), Times is `·` (joint use). This is the free construction the
// paper obtains by modeling citations "using the semirings approach of
// [Green et al.]".
type Semiring struct{}

var _ semiring.Semiring[Expr] = Semiring{}

// Zero returns the empty alternative (absent citation).
func (Semiring) Zero() Expr { return Alt{} }

// One returns the empty joint (neutral citation).
func (Semiring) One() Expr { return Joint{} }

// appendDedup appends e to dst unless an expression with the same
// canonical encoding is already present, preserving first-occurrence
// order.
func appendDedup(dst []Expr, e Expr) []Expr {
	k := e.Canonical()
	for _, d := range dst {
		if d.Canonical() == k {
			return dst
		}
	}
	return append(dst, e)
}

// Plus combines alternatives, flattening, dropping zeros, and deduplicating
// identical alternatives. Deduplication makes `+` idempotent, which is
// sound for every policy this system implements (union, join/intersection
// and first are all idempotent on identical operands) and matches the
// paper's rendering of the worked example, where identical per-binding
// citations appear once.
func (Semiring) Plus(a, b Expr) Expr {
	var children []Expr
	for _, e := range [2]Expr{a, b} {
		if alt, ok := e.(Alt); ok {
			for _, c := range alt.Children {
				children = appendDedup(children, c)
			}
			continue
		}
		children = appendDedup(children, e)
	}
	if len(children) == 1 {
		return children[0]
	}
	return Alt{Children: children}
}

// Times combines joint uses, flattening and deduplicating identical
// factors (idempotent `·`, sound for the implemented policies); zero
// annihilates.
func (Semiring) Times(a, b Expr) Expr {
	if isZero(a) || isZero(b) {
		return Alt{}
	}
	var children []Expr
	for _, e := range [2]Expr{a, b} {
		if j, ok := e.(Joint); ok {
			for _, c := range j.Children {
				children = appendDedup(children, c)
			}
			continue
		}
		children = appendDedup(children, e)
	}
	if len(children) == 1 {
		return children[0]
	}
	return Joint{Children: children}
}

// Equal reports canonical equality.
func (Semiring) Equal(a, b Expr) bool { return Equal(a, b) }

// IsZero reports whether the expression is the empty alternative.
func (Semiring) IsZero(a Expr) bool { return isZero(a) }

func isZero(e Expr) bool {
	alt, ok := e.(Alt)
	return ok && len(alt.Children) == 0
}

// NewAtom constructs the citation atom CV(params) of view.
func NewAtom(view string, params ...value.Value) Atom { return Atom{View: view, Params: params} }
