// Package trace is the server's dependency-free request-tracing layer:
// per-request trace IDs and a span tree threaded through context.Context
// across the whole citation pipeline — admission, result-cache lookup,
// parse, rewriting enumeration, view materialization, plan compilation,
// evaluation, policy aggregation, fixity pinning, encoding (DESIGN.md
// §9). A trace answers the operator question the paper's accountability
// promise raises about the engine itself: *where* did a slow citation
// spend its time?
//
// Design constraints, in order:
//
//  1. Zero cost when off. Every entry point is nil-safe: a context that
//     carries no span makes StartSpan/Add/Set no-ops, so un-sampled
//     requests (and every non-server caller of the engine) pay one
//     context lookup per pipeline stage and nothing per tuple.
//  2. Safe under the engine's concurrency. Alternative rewritings are
//     evaluated by a worker pool and batch queries fan out, so sibling
//     spans are created concurrently under one parent; each span guards
//     its attributes and child list with a mutex and durations are
//     atomics. Snapshot and Visit can therefore race an in-flight
//     computation (a client that timed out while its detached
//     cache-fill keeps running) and still see a consistent tree.
//  3. Nearly free when on. Tracing is on for every request by default,
//     so a traced cache hit must cost little more than an untraced one:
//     its spans live in a slab inside the Trace, attributes sit in
//     small inline arrays with counters unboxed, and walks follow the
//     tree in place. A traced hit allocates twice, for the trace and
//     its ID string.
//  4. Plain data out. A finished trace renders to a JSON span tree
//     (Snapshot) used verbatim by the slow-query log, GET /debug/traces
//     and the ?trace=1 response echo — one format, three sinks.
package trace

import (
	"context"
	"encoding/binary"
	"encoding/hex"
	"math/rand/v2"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Trace is one request's span tree. Create with New, thread through
// contexts via NewContext/StartSpan, and Finish the root when the
// request completes.
//
// A trace carries its first slabSpans spans inline (the root included),
// enough for every span a /cite cache hit opens, so a traced hit costs
// one allocation for its whole tree. Later spans — an engine
// computation's parse, rewrite, views, eval and the rest — fall back to
// the heap one by one.
type Trace struct {
	// ID is the request's trace identifier (16 hex chars), stamped on
	// the slow-query log, /debug/traces and the ?trace=1 echo so one
	// request can be followed across all three.
	ID    string
	start time.Time
	root  *Span
	used  atomic.Int32 // slab spans handed out, the root included
	slab  [slabSpans]Span
}

// slabSpans is the span count of a traced /cite cache hit: the root
// plus validate, decode, admission, cache and encode.
const slabSpans = 6

// inlineAttrs is how many attributes a span holds before it spills to
// the heap: every server span carries at most one, most engine spans
// two.
const inlineAttrs = 2

// Span is one timed stage of a trace. All methods are nil-safe: a nil
// *Span (no trace in the context) ignores every call, which is what
// keeps the un-sampled hot path free of branches beyond the nil check.
//
// Children form an intrusive list: the parent points at its first and
// last child, and each child at its next sibling, so no span allocates
// for its children, however many it has. Appends hold the parent's
// mutex. A walk reads first and last under it once, then follows the
// chain up to last without it: every link before last was written
// before last was appended, so the walk sees a consistent prefix of a
// list that may still be growing, and never copies it.
type Span struct {
	tr    *Trace
	name  string
	start int64        // nanoseconds since the trace start
	dur   atomic.Int64 // 0 while the span is still open

	mu      sync.Mutex
	first   *Span  // first child
	last    *Span  // last child, the append point
	next    *Span  // next sibling, written under the parent's mutex
	attrs   []attr // attrBuf until it spills
	attrBuf [inlineAttrs]attr
}

// attr is one span attribute. An int64 — a counter from Add, or Set's
// int64 — stays unboxed in n with v nil; any other Set value keeps
// whatever it was given in v.
type attr struct {
	key string
	n   int64
	v   any
}

// value returns the attribute as Snapshot renders it.
func (a *attr) value() any {
	if a.v == nil {
		return a.n
	}
	return a.v
}

// New starts a trace whose root span carries the given name (the
// server uses the endpoint). The returned trace is sampled by
// construction — the sampling decision belongs to the caller, before
// any allocation happens.
func New(name string) *Trace {
	// IDs only need to be distinct enough for log correlation, so the
	// fast math/rand source beats a crypto/rand syscall on every
	// sampled request.
	var raw [8]byte
	var id [16]byte
	binary.BigEndian.PutUint64(raw[:], rand.Uint64())
	hex.Encode(id[:], raw[:])
	tr := &Trace{ID: string(id[:]), start: time.Now()}
	tr.used.Store(1)
	tr.root = &tr.slab[0]
	tr.root.tr, tr.root.name = tr, name
	return tr
}

// Root returns the trace's root span.
func (t *Trace) Root() *Span {
	if t == nil {
		return nil
	}
	return t.root
}

// Start returns the trace's start time.
func (t *Trace) Start() time.Time { return t.start }

// Finish ends the root span (if still open) and returns the trace's
// total duration.
func (t *Trace) Finish() time.Duration {
	if t == nil {
		return 0
	}
	t.root.End()
	return time.Duration(t.root.dur.Load())
}

// Duration returns the root span's duration (0 while still open).
func (t *Trace) Duration() time.Duration {
	if t == nil {
		return 0
	}
	return time.Duration(t.root.dur.Load())
}

// ctxKey carries the *current span* (not the trace): StartSpan nests
// under whatever span the context points at, which is how the tree
// mirrors the call tree.
type ctxKey struct{}

// NewContext returns ctx carrying the trace's root span as the current
// span. A nil trace returns ctx unchanged.
func NewContext(ctx context.Context, t *Trace) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, t.root)
}

// ContextWithSpan returns ctx with sp as the current span — used to
// re-parent a detached computation (its own deadline, the requester's
// trace). A nil span returns ctx unchanged.
func ContextWithSpan(ctx context.Context, sp *Span) context.Context {
	if sp == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, sp)
}

// SpanFromContext returns the current span, or nil when the context
// carries no trace.
func SpanFromContext(ctx context.Context) *Span {
	sp, _ := ctx.Value(ctxKey{}).(*Span)
	return sp
}

// FromContext returns the context's trace, or nil.
func FromContext(ctx context.Context) *Trace {
	if sp := SpanFromContext(ctx); sp != nil {
		return sp.tr
	}
	return nil
}

// StartSpan opens a child span of the context's current span and
// returns a context whose current span is the child. When the context
// carries no trace it returns (ctx, nil) — and the nil span swallows
// End/Add/Set, so callers never branch.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	parent := SpanFromContext(ctx)
	if parent == nil {
		return ctx, nil
	}
	child := parent.StartChild(name)
	return context.WithValue(ctx, ctxKey{}, child), child
}

// StartChild opens a child span directly (for callers holding a span
// rather than a context). Nil-safe.
func (s *Span) StartChild(name string) *Span {
	if s == nil {
		return nil
	}
	var child *Span
	if i := s.tr.used.Add(1) - 1; i < slabSpans {
		child = &s.tr.slab[i]
	} else {
		child = new(Span)
	}
	child.tr, child.name, child.start = s.tr, name, int64(time.Since(s.tr.start))
	s.mu.Lock()
	if s.last == nil {
		s.first = child
	} else {
		s.last.next = child
	}
	s.last = child
	s.mu.Unlock()
	return child
}

// children returns the span's first and last child as of now. The chain
// from first to last is complete and never changes; only last.next may
// still be written.
func (s *Span) children() (first, last *Span) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.first, s.last
}

// End closes the span. Idempotent: the first call wins, so a span
// cannot lose its duration to a double close. Nil-safe.
func (s *Span) End() {
	if s == nil {
		return
	}
	d := int64(time.Since(s.tr.start)) - s.start
	if d <= 0 {
		// A span always has a non-zero duration: monotonic time makes
		// d >= 0, and clamping to 1ns keeps "ended" distinguishable
		// from "still open" (dur 0).
		d = 1
	}
	s.dur.CompareAndSwap(0, d)
}

// Name returns the span's name ("" for nil).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Duration returns the span's duration, 0 while still open. Nil-safe.
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	return time.Duration(s.dur.Load())
}

// Set records a key/value attribute on the span (strings, bools and
// integers; values render into the JSON span tree). A nil value is
// ignored. Nil-safe.
func (s *Span) Set(key string, v any) {
	if s == nil || v == nil {
		return
	}
	s.mu.Lock()
	a := s.attr(key)
	if n, ok := v.(int64); ok {
		a.n, a.v = n, nil
	} else {
		a.n, a.v = 0, v
	}
	s.mu.Unlock()
}

// Add increments an int64 counter attribute. Nil-safe.
func (s *Span) Add(key string, n int64) {
	if s == nil || n == 0 {
		return
	}
	s.mu.Lock()
	a := s.attr(key)
	if a.v != nil {
		// A counter replaces a Set value that is not an int64.
		a.n, a.v = 0, nil
	}
	a.n += n
	s.mu.Unlock()
}

// attr returns the key's attribute, appending an empty one (a zero
// counter) when the span has none. The caller holds s.mu.
func (s *Span) attr(key string) *attr {
	if a := s.lookup(key); a != nil {
		return a
	}
	if s.attrs == nil {
		s.attrs = s.attrBuf[:0]
	}
	s.attrs = append(s.attrs, attr{key: key})
	return &s.attrs[len(s.attrs)-1]
}

// lookup finds the key's attribute, or nil. The caller holds s.mu.
func (s *Span) lookup(key string) *attr {
	for i := range s.attrs {
		if s.attrs[i].key == key {
			return &s.attrs[i]
		}
	}
	return nil
}

// Attr reads one attribute of the span. Nil-safe (reports absent).
func (s *Span) Attr(key string) (any, bool) {
	if s == nil {
		return nil, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if a := s.lookup(key); a != nil {
		return a.value(), true
	}
	return nil, false
}

// AttrInt reads an integer attribute, coercing the int/int64 values Set
// and Add store. Absent or non-numeric attributes read as 0.
func (s *Span) AttrInt(key string) int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	a := s.lookup(key)
	if a == nil {
		return 0
	}
	switch n := a.v.(type) {
	case nil:
		return a.n
	case int:
		return int64(n)
	}
	return 0
}

// Visit walks the span subtree preorder, calling fn on every span
// (ended or not). It follows the child lists in place, so it allocates
// nothing and is safe against a detached computation still appending —
// the walk sees a consistent prefix of the final tree. Nil-safe. This
// is the extraction path of the per-query statistics store and of the
// server's stage histograms: costs are read from live spans (full
// nanosecond durations, no snapshot allocation) after the root
// finishes.
func (s *Span) Visit(fn func(*Span)) {
	if s == nil {
		return
	}
	fn(s)
	for c, last := s.children(); c != nil; c = c.next {
		c.Visit(fn)
		if c == last {
			break
		}
	}
}

// SpanSnapshot is the plain-data rendering of one span, the unit of
// the JSON span tree emitted by the slow-query log, /debug/traces and
// the ?trace=1 echo. Durations are microseconds: coarse enough to
// read, fine enough to see a 100µs stage.
type SpanSnapshot struct {
	Name string `json:"name"`
	// StartUS is the span's start offset from the trace start.
	StartUS int64 `json:"start_us"`
	// DurUS is the span's duration; 0 means the span was still open
	// when the snapshot was taken (a detached computation outliving
	// its client).
	DurUS    int64          `json:"dur_us"`
	Attrs    map[string]any `json:"attrs,omitempty"`
	Children []SpanSnapshot `json:"children,omitempty"`
}

// Snapshot renders the span subtree into plain data. It reads each
// span's attributes under its mutex and follows the child lists like
// Visit, so it is safe to call while a detached computation is still
// appending spans — the result is a consistent prefix of the final
// tree. Nil-safe (returns a zero snapshot).
func (s *Span) Snapshot() SpanSnapshot {
	if s == nil {
		return SpanSnapshot{}
	}
	out := SpanSnapshot{
		Name:    s.name,
		StartUS: s.start / int64(time.Microsecond),
		DurUS:   s.dur.Load() / int64(time.Microsecond),
	}
	// Sub-microsecond but ended spans round up to 1µs so "ran" and
	// "never ended" stay distinguishable after rounding.
	if out.DurUS == 0 && s.dur.Load() > 0 {
		out.DurUS = 1
	}
	s.mu.Lock()
	if len(s.attrs) > 0 {
		out.Attrs = make(map[string]any, len(s.attrs))
		for i := range s.attrs {
			out.Attrs[s.attrs[i].key] = s.attrs[i].value()
		}
	}
	c, last := s.first, s.last
	s.mu.Unlock()
	for ; c != nil; c = c.next {
		out.Children = append(out.Children, c.Snapshot())
		if c == last {
			break
		}
	}
	return out
}

// TraceSnapshot is the plain-data rendering of one whole trace.
type TraceSnapshot struct {
	ID    string       `json:"trace_id"`
	Start time.Time    `json:"start"`
	DurUS int64        `json:"dur_us"`
	Root  SpanSnapshot `json:"spans"`
}

// Snapshot renders the whole trace. Nil-safe.
func (t *Trace) Snapshot() TraceSnapshot {
	if t == nil {
		return TraceSnapshot{}
	}
	return TraceSnapshot{
		ID:    t.ID,
		Start: t.start.UTC(),
		DurUS: t.root.dur.Load() / int64(time.Microsecond),
		Root:  t.root.Snapshot(),
	}
}

// Stages flattens the span tree into (name, duration) pairs for every
// *ended* span. Repeated names (one "views" span per materialized view,
// one "branch" per rewriting) each contribute their own observation.
// Callers that only consume the pairs, like the server's per-stage
// latency histograms, walk the tree with Visit instead and allocate
// nothing.
func (t *Trace) Stages() []Stage {
	if t == nil {
		return nil
	}
	var out []Stage
	t.root.Visit(func(s *Span) {
		if d := s.dur.Load(); d > 0 {
			out = append(out, Stage{Name: s.name, Dur: time.Duration(d)})
		}
	})
	return out
}

// Stage is one ended span's name and duration.
type Stage struct {
	Name string
	Dur  time.Duration
}

// StageNames returns the sorted distinct span names in the trace —
// convenient for tests asserting the taxonomy.
func (t *Trace) StageNames() []string {
	seen := make(map[string]bool)
	for _, st := range t.Stages() {
		seen[st.Name] = true
	}
	out := make([]string, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
