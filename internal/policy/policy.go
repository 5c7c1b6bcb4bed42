// Package policy interprets citation expressions under the owner-specified
// combination functions of the paper: the abstract operators `·`, `+`, `+R`
// and `Agg` "are policies to be specified by the database owner" (§2). The
// package provides the interpretations the paper proposes — union and join
// for `·`, `+` and `Agg`; union or minimum-estimated-size for `+R` — and
// applies them to citations in flat form (EvalRun, over the atom ids of
// package citation's branch tables) and to citeexpr trees (Eval, resolving
// citation atoms to records via a caller-supplied Resolver).
package policy

import (
	"fmt"

	"repro/internal/citeexpr"
	"repro/internal/format"
)

// Combine selects the combination function for `·`, `+`, or `Agg`.
type Combine int

// Combination functions for the n-ary operators.
const (
	// Union merges the records field-wise (the paper's "union").
	Union Combine = iota
	// Join keeps only field/value pairs common to all operands (the
	// paper's "join").
	Join
	// First keeps the first operand's record (a deterministic "pick
	// one" policy, natural for `+` when any witness suffices).
	First
)

// String names the combination function.
func (c Combine) String() string {
	switch c {
	case Union:
		return "union"
	case Join:
		return "join"
	case First:
		return "first"
	default:
		return fmt.Sprintf("combine(%d)", int(c))
	}
}

// Select chooses among rewriting branches for `+R`.
type Select int

// Selection strategies for `+R`.
const (
	// MinSize picks the branch with the fewest distinct citation atoms
	// (the paper's "minimum estimated size" ordering).
	MinSize Select = iota
	// AllBranches combines every branch with the `+` policy instead of
	// selecting one.
	AllBranches
	// MaxCoverage picks the branch with the most distinct citation atoms
	// (the "most comprehensive" ordering the paper mentions).
	MaxCoverage
)

// String names the selection strategy.
func (s Select) String() string {
	switch s {
	case MinSize:
		return "min-size"
	case AllBranches:
		return "all-branches"
	case MaxCoverage:
		return "max-coverage"
	default:
		return fmt.Sprintf("select(%d)", int(s))
	}
}

// Policy fixes the interpretation of the four abstract operators.
type Policy struct {
	Joint Combine // `·`
	Alt   Combine // `+`
	AltR  Select  // `+R`
	Agg   Combine // result-level aggregation
}

// Default returns the paper's closing-example policy: union for `·`, `+`
// and Agg, minimum estimated size for `+R`.
func Default() Policy {
	return Policy{Joint: Union, Alt: Union, AltR: MinSize, Agg: Union}
}

// String summarizes the policy.
func (p Policy) String() string {
	return fmt.Sprintf("joint=%s alt=%s altR=%s agg=%s", p.Joint, p.Alt, p.AltR, p.Agg)
}

// Resolver resolves a citation atom to its concrete citation record (by
// running the view's citation queries with the atom's parameter values and
// applying the citation function).
type Resolver func(citeexpr.Atom) (format.Record, error)

// Pick applies the +R selection to n branches, the i-th of size(i)
// distinct atoms: the index of the fewest (MinSize) or most
// (MaxCoverage), ties toward the earlier, which is deterministic because
// the generator orders rewritings; or -1 under AllBranches.
func (p Policy) Pick(n int, size func(i int) int) int {
	if p.AltR == AllBranches || n == 0 {
		return -1
	}
	best, bestSize := 0, size(0)
	for i := 1; i < n; i++ {
		if s := size(i); p.AltR == MaxCoverage && s > bestSize || p.AltR != MaxCoverage && s < bestSize {
			best, bestSize = i, s
		}
	}
	return best
}

// SelectBranch applies the +R selection (Pick, by citeexpr.Size) to the
// children of an AltR node; under AllBranches it returns their Alt.
func (p Policy) SelectBranch(children []citeexpr.Expr) citeexpr.Expr {
	if i := p.Pick(len(children), func(i int) int { return citeexpr.Size(children[i]) }); i >= 0 {
		return children[i]
	}
	return citeexpr.Alt{Children: children}
}

// Fold combines records under c into a fresh record, never one of the
// operands; an empty operand list yields an empty record. Union adds
// every operand's values into one new record, in operand order.
func (c Combine) Fold(records []format.Record) format.Record {
	if len(records) == 0 {
		return format.Record{}
	}
	switch c {
	case First:
		return records[0].Clone()
	case Join:
		out := records[0].Clone()
		for _, r := range records[1:] {
			out = out.Intersect(r)
		}
		return out
	default: // Union
		out := make(format.Record, len(records[0]))
		for _, r := range records {
			out.AddAll(r)
		}
		return out
	}
}

// NoAtom pads a monomial of a flat citation whose repeated atoms `·`
// dropped.
const NoAtom = ^uint32(0)

// EvalRun interprets one tuple's citation under one rewriting in flat
// form: ids holds its monomials, width atom ids each, distinct as sets,
// in first-occurrence order; resolve maps an id to its record. It is
// Eval of the tree the citeexpr semiring builds for the same bindings —
// an atom alone, else a Joint, per monomial; an Alt over several — which
// it never builds.
func (p Policy) EvalRun(ids []uint32, width int, resolve func(id uint32) (format.Record, error)) (format.Record, error) {
	var mb, ab [4]format.Record
	monos := mb[:0]
	for m := 0; m < len(ids); m += width {
		atoms := ab[:0]
		for _, id := range ids[m : m+width] {
			if id != NoAtom {
				r, err := resolve(id)
				if err != nil {
					return nil, err
				}
				atoms = append(atoms, r)
			}
		}
		if len(atoms) == 1 {
			monos = append(monos, atoms[0])
		} else {
			monos = append(monos, p.Joint.Fold(atoms))
		}
	}
	if len(monos) == 1 {
		return monos[0], nil
	}
	return p.Alt.Fold(monos), nil
}

// Eval interprets a citation expression under the policy, resolving atoms
// with resolve. AltR nodes are first reduced with SelectBranch; Agg nodes
// combine children with the Agg function; Joint and Alt use their
// respective functions.
func (p Policy) Eval(e citeexpr.Expr, resolve Resolver) (format.Record, error) {
	switch n := e.(type) {
	case citeexpr.Atom:
		return resolve(n)
	case citeexpr.Joint:
		return p.fold(p.Joint, n.Children, resolve)
	case citeexpr.Alt:
		return p.fold(p.Alt, n.Children, resolve)
	case citeexpr.AltR:
		return p.Eval(p.SelectBranch(n.Children), resolve)
	case citeexpr.Agg:
		return p.fold(p.Agg, n.Children, resolve)
	default:
		return nil, fmt.Errorf("policy: unknown expression node %T", e)
	}
}

// EvalAgg aggregates per-tuple records under the Agg function: Eval of an
// Agg node whose children the caller evaluated, as the generator does.
func (p Policy) EvalAgg(records []format.Record) format.Record { return p.Agg.Fold(records) }

// fold evaluates children and combines their records under c.
func (p Policy) fold(c Combine, children []citeexpr.Expr, resolve Resolver) (format.Record, error) {
	records := make([]format.Record, 0, len(children))
	for _, e := range children {
		r, err := p.Eval(e, resolve)
		if err != nil {
			return nil, err
		}
		records = append(records, r)
	}
	return c.Fold(records), nil
}
