// Package cq defines conjunctive queries (CQs): the query language of the
// data-citation model. A query has a head, a body of relational atoms, and
// an optional list of λ-parameters (per the paper's "parameterized views").
//
// Syntax accepted by Parse (datalog style, following the paper):
//
//	lambda FID. V1(FID, FName, Desc) :- Family(FID, FName, Desc)
//	Q(FName) :- Family(FID, FName, Desc), FamilyIntro(FID, Text)
//	CV2(D) :- D = 'IUPHAR/BPS Guide to PHARMACOLOGY...'
//
// Identifiers are variables; single-quoted strings and numeric literals are
// constants. Equality atoms (Var = const) bind variables to constants and
// are folded into the query during parsing. The Unicode λ may be used in
// place of the keyword "lambda".
package cq

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/value"
)

// Term is a variable or a constant appearing in an atom.
type Term struct {
	// IsVar marks a variable term; Name holds the variable name.
	IsVar bool
	Name  string
	// Const holds the constant value when IsVar is false.
	Const value.Value
}

// Var constructs a variable term.
func Var(name string) Term { return Term{IsVar: true, Name: name} }

// Const constructs a constant term.
func Const(v value.Value) Term { return Term{Const: v} }

// String renders the term: variables verbatim, constants quoted.
func (t Term) String() string {
	if t.IsVar {
		return t.Name
	}
	return t.Const.Quote()
}

// AppendString appends t's String rendering to dst and returns the
// extended buffer.
func (t Term) AppendString(dst []byte) []byte {
	if t.IsVar {
		return append(dst, t.Name...)
	}
	return value.AppendQuote(dst, t.Const)
}

// Equal reports structural equality of terms.
func (t Term) Equal(u Term) bool {
	if t.IsVar != u.IsVar {
		return false
	}
	if t.IsVar {
		return t.Name == u.Name
	}
	return t.Const == u.Const
}

// Atom is a relational atom: a predicate applied to terms.
type Atom struct {
	Predicate string
	Terms     []Term
}

// NewAtom constructs an atom.
func NewAtom(pred string, terms ...Term) Atom {
	return Atom{Predicate: pred, Terms: terms}
}

// String renders the atom as Pred(t1, ..., tn).
func (a Atom) String() string {
	var b [128]byte
	return string(a.AppendString(b[:0]))
}

// AppendString appends a's String rendering to dst and returns the
// extended buffer.
func (a Atom) AppendString(dst []byte) []byte {
	dst = append(dst, a.Predicate...)
	dst = append(dst, '(')
	dst = appendTerms(dst, a.Terms)
	return append(dst, ')')
}

// appendTerms appends the terms' renderings to dst, separated by ", ":
// the argument list of an atom or a head.
func appendTerms(dst []byte, terms []Term) []byte {
	for i, t := range terms {
		if i > 0 {
			dst = append(dst, ", "...)
		}
		dst = t.AppendString(dst)
	}
	return dst
}

// Equal reports structural equality of atoms.
func (a Atom) Equal(b Atom) bool {
	if a.Predicate != b.Predicate || len(a.Terms) != len(b.Terms) {
		return false
	}
	for i := range a.Terms {
		if !a.Terms[i].Equal(b.Terms[i]) {
			return false
		}
	}
	return true
}

// Clone returns a deep copy of the atom.
func (a Atom) Clone() Atom {
	terms := make([]Term, len(a.Terms))
	copy(terms, a.Terms)
	return Atom{Predicate: a.Predicate, Terms: terms}
}

// Vars appends the distinct variable names of the atom to dst, preserving
// first-occurrence order, and returns the extended slice.
func (a Atom) Vars(dst []string) []string {
	for _, t := range a.Terms {
		if !t.IsVar {
			continue
		}
		found := false
		for _, v := range dst {
			if v == t.Name {
				found = true
				break
			}
		}
		if !found {
			dst = append(dst, t.Name)
		}
	}
	return dst
}

// Query is a conjunctive query, optionally parameterized.
//
//	λ P1,...,Pk. Name(h1,...,hm) :- A1, ..., An
//
// Params lists the λ-variables; per the paper they must appear in the head.
type Query struct {
	Name   string
	Params []string
	Head   []Term
	Body   []Atom
}

// Clone returns a deep copy of the query.
func (q *Query) Clone() *Query {
	out := &Query{Name: q.Name}
	out.Params = append(out.Params, q.Params...)
	out.Head = make([]Term, len(q.Head))
	copy(out.Head, q.Head)
	out.Body = make([]Atom, 0, len(q.Body))
	for _, a := range q.Body {
		out.Body = append(out.Body, a.Clone())
	}
	return out
}

// HeadVars returns the distinct variable names in the head, in order.
func (q *Query) HeadVars() []string {
	var out []string
	for _, t := range q.Head {
		if !t.IsVar {
			continue
		}
		dup := false
		for _, v := range out {
			if v == t.Name {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, t.Name)
		}
	}
	return out
}

// BodyVars returns the distinct variable names in the body, in order of
// first occurrence.
func (q *Query) BodyVars() []string {
	var out []string
	for _, a := range q.Body {
		out = a.Vars(out)
	}
	return out
}

// AllVars returns head then body variables, deduplicated, in order.
func (q *Query) AllVars() []string {
	out := q.HeadVars()
	for _, v := range q.BodyVars() {
		dup := false
		for _, w := range out {
			if w == v {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, v)
		}
	}
	return out
}

// ExistentialVars returns body variables that do not appear in the head,
// sorted for determinism.
func (q *Query) ExistentialVars() []string {
	head := make(map[string]bool)
	for _, v := range q.HeadVars() {
		head[v] = true
	}
	var out []string
	for _, v := range q.BodyVars() {
		if !head[v] {
			out = append(out, v)
		}
	}
	sort.Strings(out)
	return out
}

// IsParameterized reports whether the query declares λ-parameters.
func (q *Query) IsParameterized() bool { return len(q.Params) > 0 }

// IsConstant reports whether the query has an empty body (its head is fully
// determined by constants — the form citation queries like CV2 take).
func (q *Query) IsConstant() bool { return len(q.Body) == 0 }

// Validate checks well-formedness:
//   - safety: every head variable appears in some body atom (unless the
//     body is empty and the head is all constants);
//   - every λ-parameter appears in the head (paper §2 requirement);
//   - no λ-parameter is declared twice.
//
// A query has a few variables and parameters, so each check is a linear
// scan, and a valid query allocates nothing.
func (q *Query) Validate() error {
	if q.Name == "" {
		return fmt.Errorf("cq: query has empty name")
	}
	for _, t := range q.Head {
		switch {
		case !t.IsVar:
		case len(q.Body) == 0:
			return fmt.Errorf("cq: %s: head variable %s in a body-less query is unsafe", q.Name, t.Name)
		case !q.bodyHasVar(t.Name):
			return fmt.Errorf("cq: %s: head variable %s does not appear in the body", q.Name, t.Name)
		}
	}
	for _, p := range q.Params {
		if !slices.ContainsFunc(q.Head, func(t Term) bool { return t.IsVar && t.Name == p }) {
			return fmt.Errorf("cq: %s: parameter %s must appear in the head", q.Name, p)
		}
	}
	for i, p := range q.Params {
		if slices.Contains(q.Params[:i], p) {
			return fmt.Errorf("cq: %s: duplicate parameter %s", q.Name, p)
		}
	}
	return nil
}

// bodyHasVar reports whether a body atom has the variable name.
func (q *Query) bodyHasVar(name string) bool {
	for _, a := range q.Body {
		for _, t := range a.Terms {
			if t.IsVar && t.Name == name {
				return true
			}
		}
	}
	return false
}

// Rename returns a copy of the query with every variable prefixed, making
// it variable-disjoint from any query whose variables lack the prefix.
func (q *Query) Rename(prefix string) *Query {
	out := q.Clone()
	ren := func(t Term) Term {
		if t.IsVar {
			return Var(prefix + t.Name)
		}
		return t
	}
	for i, t := range out.Head {
		out.Head[i] = ren(t)
	}
	for i := range out.Body {
		for j, t := range out.Body[i].Terms {
			out.Body[i].Terms[j] = ren(t)
		}
	}
	for i, p := range out.Params {
		out.Params[i] = prefix + p
	}
	return out
}

// Substitute applies a variable substitution to the query's head and body.
// Variables absent from sub are left untouched.
func (q *Query) Substitute(sub map[string]Term) *Query {
	out := q.Clone()
	app := func(t Term) Term {
		if t.IsVar {
			if r, ok := sub[t.Name]; ok {
				return r
			}
		}
		return t
	}
	for i, t := range out.Head {
		out.Head[i] = app(t)
	}
	for i := range out.Body {
		for j, t := range out.Body[i].Terms {
			out.Body[i].Terms[j] = app(t)
		}
	}
	return out
}

// String renders the query in the parseable datalog syntax, including the
// λ-prefix when parameterized. It is AppendString into a new string.
func (q *Query) String() string {
	var b [256]byte
	return string(q.AppendString(b[:0]))
}

// AppendString appends q's String rendering to dst and returns the
// extended buffer: given a buffer with room, it renders without
// allocating.
func (q *Query) AppendString(dst []byte) []byte {
	if len(q.Params) > 0 {
		dst = append(dst, "lambda "...)
		for i, p := range q.Params {
			if i > 0 {
				dst = append(dst, ", "...)
			}
			dst = append(dst, p...)
		}
		dst = append(dst, ". "...)
	}
	dst = append(dst, q.Name...)
	dst = append(dst, '(')
	dst = appendTerms(dst, q.Head)
	dst = append(dst, ") :- "...)
	if len(q.Body) == 0 {
		return append(dst, "true"...)
	}
	for i, a := range q.Body {
		if i > 0 {
			dst = append(dst, ", "...)
		}
		dst = a.AppendString(dst)
	}
	return dst
}

// Fingerprint returns the query's constant-normalized canonical form —
// the aggregation key of the server's per-query statistics store. Like
// Signature it numbers variables by first occurrence, but it also
// replaces every constant (head and body) with a positional $N
// placeholder, so two queries that differ only in their constant
// bindings share one fingerprint. The head predicate name is kept: it is
// how operators recognize their own queries in a top-queries table. The
// constants themselves are returned in placeholder order so the caller
// can count distinct bindings per fingerprint.
func (q *Query) Fingerprint() (string, []value.Value) {
	next := 0
	names := make(map[string]string)
	var consts []value.Value
	canon := func(t Term) string {
		if !t.IsVar {
			consts = append(consts, t.Const)
			return "$" + strconv.Itoa(len(consts))
		}
		n, ok := names[t.Name]
		if !ok {
			n = fmt.Sprintf("v%d", next)
			next++
			names[t.Name] = n
		}
		return n
	}
	var b strings.Builder
	if len(q.Params) > 0 {
		b.WriteString("lambda ")
		for i, p := range q.Params {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(canon(Var(p)))
		}
		b.WriteString(". ")
	}
	b.WriteString(q.Name)
	b.WriteByte('(')
	for i, t := range q.Head {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(canon(t))
	}
	b.WriteString(") :- ")
	if len(q.Body) == 0 {
		b.WriteString("true")
		return b.String(), consts
	}
	for i, a := range q.Body {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(a.Predicate)
		b.WriteByte('(')
		for j, t := range a.Terms {
			if j > 0 {
				b.WriteString(", ")
			}
			b.WriteString(canon(t))
		}
		b.WriteByte(')')
	}
	return b.String(), consts
}

// ConstHash folds a constant binding (the []value.Value a Fingerprint
// call extracted) into one 64-bit identity, FNV-style over the values'
// own hashes. Used by the statistics store to count distinct bindings
// without retaining the constants.
func ConstHash(consts []value.Value) uint64 {
	h := uint64(14695981039346656037) // FNV-64 offset basis
	for _, c := range consts {
		h ^= c.Hash()
		h *= 1099511628211 // FNV-64 prime
	}
	return h
}

// Signature returns a canonical string identifying the query shape with
// variables numbered by first occurrence; two queries with equal signatures
// are identical up to variable renaming.
func (q *Query) Signature() string {
	next := 0
	names := make(map[string]string)
	canon := func(t Term) string {
		if !t.IsVar {
			return t.Const.Quote()
		}
		n, ok := names[t.Name]
		if !ok {
			n = fmt.Sprintf("v%d", next)
			next++
			names[t.Name] = n
		}
		return n
	}
	var b strings.Builder
	b.WriteByte('(')
	for i, t := range q.Head {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(canon(t))
	}
	b.WriteString("):-")
	for i, a := range q.Body {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(a.Predicate)
		b.WriteByte('(')
		for j, t := range a.Terms {
			if j > 0 {
				b.WriteByte(',')
			}
			b.WriteString(canon(t))
		}
		b.WriteByte(')')
	}
	return b.String()
}
