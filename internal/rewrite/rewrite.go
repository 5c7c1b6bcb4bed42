// Package rewrite implements answering queries using views for conjunctive
// queries: given a query Q and a set of CQ views, enumerate the (minimal)
// equivalent rewritings of Q whose atoms are view heads. This is the first
// stage of the data-citation pipeline (paper §2): citations attach to
// views, so a citation for a general query is assembled from the citations
// of the views appearing in its rewritings.
//
// Two algorithms are provided:
//
//   - MethodMiniCon — the MiniCon algorithm (Pottinger & Halevy, VLDB'00):
//     build MiniCon descriptions (MCDs) that map query subgoals into views
//     subject to the distinguished-variable conditions, then combine MCDs
//     with disjoint subgoal coverage.
//   - MethodBucket — the bucket algorithm (Levy et al.), kept as the
//     experimental baseline: one bucket of view candidates per subgoal and
//     a cartesian-product combination phase.
//
// Both produce candidates that are certified by expanding view atoms into
// their definitions and checking equivalence with Q (package contain), so
// every returned rewriting is guaranteed equivalent (or, for partial
// rewritings, is returned with its residual base atoms included in the
// certified expansion).
//
// Per the paper, λ-parameters of views are ignored while rewriting and
// re-attached by the citation layer afterwards.
package rewrite

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"
	"sort"

	"repro/internal/contain"
	"repro/internal/cq"
)

// Method selects the rewriting algorithm.
type Method int

// Available rewriting algorithms.
const (
	MethodMiniCon Method = iota
	MethodBucket
)

// String names the method.
func (m Method) String() string {
	switch m {
	case MethodMiniCon:
		return "minicon"
	case MethodBucket:
		return "bucket"
	default:
		return fmt.Sprintf("method(%d)", int(m))
	}
}

// Options tune the rewriting search.
type Options struct {
	// Method selects MiniCon (default) or the bucket baseline.
	Method Method
	// MaxRewritings stops the search after this many certified
	// rewritings; 0 means unlimited.
	MaxRewritings int
	// AllowPartial also returns partial rewritings, in which some query
	// subgoals remain as base-relation atoms alongside view atoms.
	AllowPartial bool
}

// DefaultMaxCandidates bounds the candidate combinations a search
// examines before equivalence checking.
const DefaultMaxCandidates = 100000

// ViewAtom is an atom over a view head appearing in a rewriting.
type ViewAtom struct {
	ViewName string
	Args     []cq.Term
}

// Atom converts the view atom to a plain cq.Atom with the view name as
// predicate.
func (va ViewAtom) Atom() cq.Atom { return cq.NewAtom(va.ViewName, va.Args...) }

// String renders the view atom.
func (va ViewAtom) String() string { return va.Atom().String() }

// Rewriting is a (possibly partial) rewriting of a query: its head, the
// view atoms used, and any residual base atoms (empty for complete
// rewritings).
type Rewriting struct {
	Head      []cq.Term
	ViewAtoms []ViewAtom
	BaseAtoms []cq.Atom
}

// IsPartial reports whether base atoms remain.
func (r *Rewriting) IsPartial() bool { return len(r.BaseAtoms) > 0 }

// AsQuery renders the rewriting as a conjunctive query whose body contains
// view-head atoms (and residual base atoms).
func (r *Rewriting) AsQuery(name string) *cq.Query {
	q := &cq.Query{Name: name}
	q.Head = append(q.Head, r.Head...)
	for _, va := range r.ViewAtoms {
		q.Body = append(q.Body, va.Atom())
	}
	for _, a := range r.BaseAtoms {
		q.Body = append(q.Body, a.Clone())
	}
	return q
}

// String renders the rewriting in datalog syntax.
func (r *Rewriting) String() string {
	var b [256]byte
	return string(r.AppendString(b[:0]))
}

// AppendString appends r's String rendering to dst and returns the
// extended buffer: the rendering of r.AsQuery("Q'"), from a query that
// shares r's terms instead of copying them.
func (r *Rewriting) AppendString(dst []byte) []byte {
	var ab [8]cq.Atom
	body := ab[:0]
	for _, va := range r.ViewAtoms {
		body = append(body, va.Atom())
	}
	q := cq.Query{Name: "Q'", Head: r.Head, Body: append(body, r.BaseAtoms...)}
	return q.AppendString(dst)
}

// signature canonically identifies the rewriting (order-insensitive over
// atoms) for deduplication.
func (r *Rewriting) signature() string {
	q := r.AsQuery("R")
	// Sort body atoms by a stable per-atom rendering before canonical
	// variable numbering so atom order doesn't split duplicates.
	sort.SliceStable(q.Body, func(i, j int) bool {
		return q.Body[i].String() < q.Body[j].String()
	})
	return q.Signature()
}

// Expand replaces every view atom with the view's body, renaming view
// variables apart per occurrence and substituting head variables by the
// atom's arguments. The result is a query over base relations whose
// equivalence with the original certifies the rewriting.
func Expand(r *Rewriting, views map[string]*cq.Query) (*cq.Query, error) {
	out := &cq.Query{Name: "expansion"}
	out.Head = append(out.Head, r.Head...)
	for occ, va := range r.ViewAtoms {
		v, ok := views[va.ViewName]
		if !ok {
			return nil, fmt.Errorf("rewrite: unknown view %s", va.ViewName)
		}
		if len(v.Head) != len(va.Args) {
			return nil, fmt.Errorf("rewrite: view %s arity %d used with %d args", va.ViewName, len(v.Head), len(va.Args))
		}
		ren := v.Rename(fmt.Sprintf("e%d_", occ))
		sub := make(map[string]cq.Term, len(ren.Head))
		for i, h := range ren.Head {
			if !h.IsVar {
				return nil, fmt.Errorf("rewrite: view %s has constant head term; unsupported in rewriting", va.ViewName)
			}
			if prev, dup := sub[h.Name]; dup && !prev.Equal(va.Args[i]) {
				return nil, fmt.Errorf("rewrite: view %s has repeated head variable with conflicting arguments", va.ViewName)
			}
			sub[h.Name] = va.Args[i]
		}
		expanded := ren.Substitute(sub)
		out.Body = append(out.Body, expanded.Body...)
	}
	for _, a := range r.BaseAtoms {
		out.Body = append(out.Body, a.Clone())
	}
	return out, nil
}

// Result carries the certified rewritings plus search statistics used by
// the benchmark harness.
type Result struct {
	Rewritings []*Rewriting
	// CandidatesExamined counts candidate combinations subjected to the
	// expansion + equivalence test.
	CandidatesExamined int
	// MCDCount counts MiniCon descriptions (or bucket entries) formed.
	MCDCount int
}

// Rewrite enumerates equivalent rewritings of q using the views. Views
// must have pairwise distinct names, variable (not constant) head terms,
// and no repeated head variables.
func Rewrite(q *cq.Query, views []*cq.Query, opts Options) (*Result, error) {
	if err := checkViews(views); err != nil {
		return nil, err
	}
	viewByName := make(map[string]*cq.Query, len(views))
	for _, v := range views {
		viewByName[v.Name] = v
	}
	var mcds []*mcd
	switch opts.Method {
	case MethodMiniCon:
		mcds = formMCDs(q, views, true)
	case MethodBucket:
		mcds = formMCDs(q, views, false)
	default:
		return nil, fmt.Errorf("rewrite: unknown method %v", opts.Method)
	}
	res := &Result{MCDCount: len(mcds)}
	seen := make(map[string]bool)
	emit := func(r *Rewriting) bool {
		res.CandidatesExamined++
		exp, err := Expand(r, viewByName)
		if err != nil {
			return true // skip malformed candidate, keep searching
		}
		full := exp
		if !contain.Equivalent(full, q) {
			return true
		}
		r = minimizeRewriting(r, q, viewByName)
		sig := r.signature()
		if seen[sig] {
			return true
		}
		seen[sig] = true
		res.Rewritings = append(res.Rewritings, r)
		return opts.MaxRewritings == 0 || len(res.Rewritings) < opts.MaxRewritings
	}
	switch opts.Method {
	case MethodMiniCon:
		combineMiniCon(q, mcds, opts, emit)
	case MethodBucket:
		combineBucket(q, mcds, opts, emit)
	}
	SortRewritings(res.Rewritings)
	return res, nil
}

func checkViews(views []*cq.Query) error {
	names := make(map[string]bool, len(views))
	for _, v := range views {
		if names[v.Name] {
			return fmt.Errorf("rewrite: duplicate view name %s", v.Name)
		}
		names[v.Name] = true
		seen := make(map[string]bool, len(v.Head))
		for _, h := range v.Head {
			if !h.IsVar {
				return fmt.Errorf("rewrite: view %s: constant head terms are unsupported", v.Name)
			}
			if seen[h.Name] {
				return fmt.Errorf("rewrite: view %s: repeated head variable %s is unsupported", v.Name, h.Name)
			}
			seen[h.Name] = true
		}
	}
	return nil
}

// SortRewritings puts rewritings in the order Rewrite returns them:
// fewer view atoms first, then by rendering. Rewrite's results render
// pairwise differently (equal renderings share a signature and are
// deduplicated), so the order is total. Callers that substitute
// constants into a result re-sort with it to get the order a fresh
// Rewrite would give. Each rewriting is rendered once (AppendString),
// into one buffer, and compared as its span of bytes.
func SortRewritings(rs []*Rewriting) { SortFunc(rs, func(r *Rewriting) *Rewriting { return r }) }

// SortFunc sorts s in SortRewritings' order of the rewriting each
// element carries (rw), so data kept beside each rewriting moves with
// it.
func SortFunc[E any](s []E, rw func(E) *Rewriting) {
	if len(s) < 2 {
		return
	}
	type rendered struct {
		e          E
		start, end int
	}
	var bb [512]byte
	var kb [4]rendered
	buf, keys := bb[:0], kb[:0]
	for _, e := range s {
		start := len(buf)
		buf = rw(e).AppendString(buf)
		keys = append(keys, rendered{e, start, len(buf)})
	}
	slices.SortStableFunc(keys, func(a, b rendered) int {
		if c := cmp.Compare(len(rw(a.e).ViewAtoms), len(rw(b.e).ViewAtoms)); c != 0 {
			return c
		}
		return bytes.Compare(buf[a.start:a.end], buf[b.start:b.end])
	})
	for i, k := range keys {
		s[i] = k.e
	}
}

// minimizeRewriting drops view atoms whose removal keeps the expansion
// equivalent to q, yielding a minimal rewriting (paper: "the set of minimal
// equivalent rewritings").
func minimizeRewriting(r *Rewriting, q *cq.Query, views map[string]*cq.Query) *Rewriting {
	cur := r
	for {
		dropped := false
		for i := 0; i < len(cur.ViewAtoms); i++ {
			if len(cur.ViewAtoms) == 1 && len(cur.BaseAtoms) == 0 {
				break
			}
			cand := &Rewriting{Head: cur.Head, BaseAtoms: cur.BaseAtoms}
			cand.ViewAtoms = append(cand.ViewAtoms, cur.ViewAtoms[:i]...)
			cand.ViewAtoms = append(cand.ViewAtoms, cur.ViewAtoms[i+1:]...)
			if !headVarsCovered(cand) {
				continue
			}
			exp, err := Expand(cand, views)
			if err != nil {
				continue
			}
			if contain.Equivalent(exp, q) {
				cur = cand
				dropped = true
				break
			}
		}
		if !dropped {
			return cur
		}
	}
}

func headVarsCovered(r *Rewriting) bool {
	vars := make(map[string]bool)
	for _, va := range r.ViewAtoms {
		for _, t := range va.Args {
			if t.IsVar {
				vars[t.Name] = true
			}
		}
	}
	for _, a := range r.BaseAtoms {
		for _, t := range a.Terms {
			if t.IsVar {
				vars[t.Name] = true
			}
		}
	}
	for _, t := range r.Head {
		if t.IsVar && !vars[t.Name] {
			return false
		}
	}
	return true
}
