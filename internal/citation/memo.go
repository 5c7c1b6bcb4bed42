package citation

import (
	"encoding/binary"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/cq"
	"repro/internal/rewrite"
	"repro/internal/value"
)

// maxRewriteMemo bounds the rewriting memo. It holds one entry per
// query shape and view-set generation, so serving workloads stay far
// below it; past it the memo is dropped whole and the working set of
// shapes re-warms in one round.
const maxRewriteMemo = 1024

// rewriteMemo memoizes the rewriting stage by query shape (DESIGN.md
// §2). A rewriting set depends on the query's constants only through
// which of them equal each other or render like a view constant, so one
// entry serves every query of the shape: a hit substitutes the request's
// constants into the entry's rewritings and re-sorts them. Entries read
// no relation, so data deltas never touch them, and a view definition
// orphans them by bumping the registry generation the key starts with.
// The hit path is one lock-free sync.Map load; inserts are counted under
// mu, as in the query-statistics store's fingerprint memo.
type rewriteMemo struct {
	m            sync.Map // shape key → *memoEntry
	mu           sync.Mutex
	n            int // entries inserted since the last drop; guarded by mu
	hits, misses atomic.Int64
}

// memoEntry is the rewriting stage's outcome for one shape, as computed
// for the query that filled it, with what the pipeline derives from the
// rewritings alone (dependency sets read only predicates). It is
// immutable once stored.
type memoEntry struct {
	plans      []planned        // over from's constants; q unset
	from       []value.Value    // the filling query's class constants
	candidates int              // CandidatesExamined over both calls
	mcds       int              // MCDCount over both calls
	partial    bool             // the AllowPartial fallback ran
	reads      []string         // Result.Reads
	deps       []string         // the query's body deps, for its pin (Answer)
	pin        string           // the query's plan key for its pin (Answer)
	params     map[string][]int // view name → parameter positions
}

// stage is the rewriting stage's outcome for one cite: the memo entry of
// its query's shape, and its rewritings planned.
type stage struct {
	*memoEntry
	plans []planned
}

// planned is a rewriting with what evaluating it needs: q, the query its
// plan runs (the view atoms and residual base atoms as a body, sharing
// the rewriting's terms), deps, the base relations that body reads
// (Registry.BodyDeps), which key its plan entry with shape, q's
// eval.AppendShape. A shape masks the constants, so the memo entry
// renders it once for every cite of the entry's shape.
type planned struct {
	rw    *rewrite.Rewriting
	q     cq.Query
	deps  []string
	shape string
}

// MemoStats is a point-in-time snapshot of the rewriting memo.
type MemoStats struct {
	Hits, Misses int64
	Entries      int
}

// load returns the entry stored under key, or nil, counting the outcome.
func (m *rewriteMemo) load(key []byte) *memoEntry {
	if v, ok := m.m.Load(string(key)); ok {
		m.hits.Add(1)
		return v.(*memoEntry)
	}
	m.misses.Add(1)
	return nil
}

// store inserts e under key, dropping the whole memo first when it is
// full. A concurrent fill of the same key keeps the first entry.
func (m *rewriteMemo) store(key []byte, e *memoEntry) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.n >= maxRewriteMemo {
		m.m.Clear()
		m.n = 0
	}
	if _, loaded := m.m.LoadOrStore(string(key), e); !loaded {
		m.n++
	}
}

func (m *rewriteMemo) stats() MemoStats {
	m.mu.Lock()
	n := m.n
	m.mu.Unlock()
	return MemoStats{Hits: m.hits.Load(), Misses: m.misses.Load(), Entries: n}
}

// instantiate returns the entry's rewritings with the request's class
// constants in place of the filling query's, in the order a fresh
// rewrite.Rewrite would return them, and the same rewritings planned.
func (e *memoEntry) instantiate(to []value.Value) ([]*rewrite.Rewriting, []planned) {
	plans := copyPlans(e.plans, func(t cq.Term) cq.Term {
		if !t.IsVar {
			// Class constants are never NaN or a zero, so == is identity.
			if i := slices.Index(e.from, t.Const); i >= 0 {
				return cq.Const(to[i])
			}
		}
		return t
	})
	rewrite.SortFunc(plans, func(p planned) *rewrite.Rewriting { return p.rw })
	rws := make([]*rewrite.Rewriting, len(plans))
	for i := range plans {
		rws[i] = plans[i].rw
	}
	return rws, plans
}

// shapeKey appends the memo key of rewriting q over vs to buf, and q's
// class constants to classes. The key holds the view-set generation,
// the method, AllowPartial and q's head and body with
// variable names verbatim; q's name and λ-parameters are left out, as
// the rewriter ignores them. Each constant appears either as the index
// of its class (numbered by first occurrence) or, when it could steer
// the rewriter differently from another constant of its class, as its
// exact literal (see literal). Two queries with equal keys therefore
// differ only by a bijection between their class constants that keeps
// every comparison the rewriter makes, and classes lists the request's
// side of that bijection.
func shapeKey(buf []byte, q *cq.Query, vs *viewSet, method rewrite.Method, partial bool, classes []value.Value) ([]byte, []value.Value) {
	var db [8]value.Value
	distinct := db[:0]
	varsAfterConsts := true
	scan := func(t cq.Term) {
		switch {
		case t.IsVar:
			// Every constant rendering starts with a quote, a sign or a
			// digit; the order argument needs variables to sort after.
			varsAfterConsts = varsAfterConsts && t.Name != "" && t.Name[0] > '9'
		case !slices.ContainsFunc(distinct, func(c value.Value) bool { return identical(c, t.Const) }):
			distinct = append(distinct, t.Const)
		}
	}
	for _, t := range q.Head {
		scan(t)
	}
	for _, a := range q.Body {
		for _, t := range a.Terms {
			scan(t)
		}
	}
	for _, c := range distinct {
		if varsAfterConsts && !literal(c, distinct, vs.consts) {
			classes = append(classes, c)
		}
	}

	buf = binary.AppendUvarint(buf, vs.gen)
	buf = binary.AppendUvarint(buf, uint64(method))
	if partial {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	term := func(t cq.Term) {
		if t.IsVar {
			buf = append(buf, 'v')
			buf = appendLenString(buf, t.Name)
			return
		}
		if i := slices.Index(classes, t.Const); i >= 0 {
			buf = append(buf, 'p')
			buf = binary.AppendUvarint(buf, uint64(i))
			return
		}
		buf = appendLiteral(buf, t.Const)
	}
	buf = binary.AppendUvarint(buf, uint64(len(q.Head)))
	for _, t := range q.Head {
		term(t)
	}
	for _, a := range q.Body {
		buf = appendLenString(buf, a.Predicate)
		buf = binary.AppendUvarint(buf, uint64(len(a.Terms)))
		for _, t := range a.Terms {
			term(t)
		}
	}
	return buf, classes
}

// literal reports whether c, one of a query's distinct constants, must
// stay literal in the memo key. The rewriter compares
// constants with == (MCD formation, constant bindings, containment) and
// by rendering (MCD and rewriting signatures, the output order). A class
// constant must behave under both exactly like any other value standing
// in its place: == must coincide with identity, so NaNs and the two
// zeros stay literal, and its rendering must differ from every view
// constant's and every other query constant's, so Int(1) stays literal
// beside Float(1) or a view's '1'-rendering constant.
func literal(c value.Value, distinct, viewConsts []value.Value) bool {
	if c.Kind() == value.KindFloat && (c.FloatVal() == 0 || math.IsNaN(c.FloatVal())) {
		return true
	}
	for _, v := range viewConsts {
		if rendersLike(c, v) {
			return true
		}
	}
	for _, d := range distinct {
		if !identical(c, d) && rendersLike(c, d) {
			return true
		}
	}
	return false
}

// identical reports whether a and b are the same constant: == that
// also tells the two zeros apart and takes a NaN to be itself.
func identical(a, b value.Value) bool {
	if a.Kind() == value.KindFloat && b.Kind() == value.KindFloat {
		return math.Float64bits(a.FloatVal()) == math.Float64bits(b.FloatVal())
	}
	return a == b
}

// rendersLike reports whether a and b render alike (Value.Quote), the
// way the rewriter's signatures and its output order see constants.
func rendersLike(a, b value.Value) bool {
	ka, kb := a.Kind(), b.Kind()
	switch {
	case ka == kb && ka != value.KindFloat:
		return a == b // strings, ints and times render injectively
	case ka == value.KindString || kb == value.KindString:
		return false // only strings render quoted
	}
	var x, y [64]byte
	return string(value.AppendString(x[:0], a)) == string(value.AppendString(y[:0], b))
}

// appendLiteral appends c's exact identity: its kind and payload bits.
func appendLiteral(buf []byte, c value.Value) []byte {
	buf = append(buf, 'l', byte(c.Kind()))
	switch c.Kind() {
	case value.KindString:
		return appendLenString(buf, c.Str())
	case value.KindFloat:
		return binary.LittleEndian.AppendUint64(buf, math.Float64bits(c.FloatVal()))
	case value.KindTime:
		return binary.LittleEndian.AppendUint64(buf, uint64(c.TimeVal().UnixNano()))
	default:
		return binary.LittleEndian.AppendUint64(buf, uint64(c.IntVal()))
	}
}

// appendAtomKey appends the key of view's citation atom with params: the
// view's name and each parameter's kind and bits (appendLiteral), every
// NaN written as one. Two atoms share a key exactly when they render
// alike (citeexpr.Atom.String): in a view's typed columns, only NaN
// payloads render alike and differ in bits.
func appendAtomKey(buf []byte, view string, params []value.Value) []byte {
	buf = appendLenString(buf, view)
	for _, p := range params {
		if p.Kind() == value.KindFloat && math.IsNaN(p.FloatVal()) {
			p = value.Float(math.NaN())
		}
		buf = appendLiteral(buf, p)
	}
	return buf
}

func appendLenString(buf []byte, s string) []byte {
	return append(binary.AppendUvarint(buf, uint64(len(s))), s...)
}

// copyPlans deep-copies the rewritings of ps through sub, which maps
// every term, and plans each copy with its deps and plan key. The copies
// and their queries share five backing arrays, each slice capped at its
// length so an append cannot reach a neighbor, and keep nil slices nil.
func copyPlans(ps []planned, sub func(cq.Term) cq.Term) []planned {
	nTerms, nAtoms := 0, 0
	for _, p := range ps {
		nTerms += len(p.rw.Head)
		nAtoms += len(p.rw.ViewAtoms) + len(p.rw.BaseAtoms)
		for _, va := range p.rw.ViewAtoms {
			nTerms += len(va.Args)
		}
		for _, a := range p.rw.BaseAtoms {
			nTerms += len(a.Terms)
		}
	}
	terms := make([]cq.Term, 0, nTerms)
	views := make([]rewrite.ViewAtom, 0, nAtoms)
	body := make([]cq.Atom, 0, nAtoms)
	copyTerms := func(ts []cq.Term) []cq.Term {
		if ts == nil {
			return nil
		}
		start := len(terms)
		for _, t := range ts {
			terms = append(terms, sub(t))
		}
		return terms[start:len(terms):len(terms)]
	}
	rws := make([]rewrite.Rewriting, len(ps))
	out := make([]planned, len(ps))
	for i, p := range ps {
		c, start := &rws[i], len(body)
		c.Head = copyTerms(p.rw.Head)
		if p.rw.ViewAtoms != nil {
			at := len(views)
			for _, va := range p.rw.ViewAtoms {
				views = append(views, rewrite.ViewAtom{ViewName: va.ViewName, Args: copyTerms(va.Args)})
				body = append(body, cq.Atom{Predicate: va.ViewName, Terms: views[len(views)-1].Args})
			}
			c.ViewAtoms = views[at:len(views):len(views)]
		}
		if p.rw.BaseAtoms != nil {
			at := len(body)
			for _, a := range p.rw.BaseAtoms {
				body = append(body, cq.Atom{Predicate: a.Predicate, Terms: copyTerms(a.Terms)})
			}
			c.BaseAtoms = body[at:len(body):len(body)]
		}
		out[i] = planned{c, cq.Query{Name: "rw", Head: c.Head, Body: body[start:len(body):len(body)]}, p.deps, p.shape}
	}
	return out
}
