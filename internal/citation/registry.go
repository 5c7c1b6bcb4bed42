package citation

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"repro/internal/cq"
	"repro/internal/eval"
	"repro/internal/rewrite"
	"repro/internal/schema"
	"repro/internal/storage"
	"repro/internal/value"
)

// Registry holds the citation views declared by the database owner for one
// schema. Views are addressed by their predicate name.
//
// A Registry is safe for concurrent use: Add serializes against readers
// through an internal lock, so time-travel cites — which deliberately run
// outside the engine-wide lock (core.System, DESIGN.md §7) — can read the
// view set while a DefineView lands.
type Registry struct {
	mu     sync.RWMutex
	schema *schema.Schema
	views  []*View
	byName map[string]*View
	// citeShapes holds, per view, the plan shape of each of its citation
	// queries with the view's λ-parameters bound (citationShapes), and
	// citeDeps its CitationDeps, which no later Add changes: citation
	// queries read base relations only.
	citeShapes, citeDeps map[string][]string
	set                  *viewSet // the rewriter's image of views; replaced by every Add
}

// viewSet is one generation of the registry's views as the rewriter sees
// them. It is immutable: Add builds the next generation's set, so a cite
// that read a set keeps a consistent (generation, views, constants)
// triple however many views land meanwhile.
type viewSet struct {
	gen     uint64        // bumped by every Add
	queries []*cq.Query   // view queries, in registration order
	consts  []value.Value // distinct constants of the view bodies
}

// NewRegistry creates an empty registry over the schema.
func NewRegistry(s *schema.Schema) *Registry {
	return &Registry{schema: s, byName: make(map[string]*View), citeShapes: make(map[string][]string),
		citeDeps: make(map[string][]string), set: &viewSet{}}
}

// Schema returns the registry's database schema.
func (r *Registry) Schema() *schema.Schema { return r.schema }

// Add validates and registers a view. View names must be unique and
// distinct from base relation names.
func (r *Registry) Add(v *View) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.checkLocked(v); err != nil {
		return err
	}
	name := v.Name()
	r.views = append(r.views, v)
	r.byName[name] = v
	r.citeShapes[name] = citationShapes(v)
	deps := make(map[string]bool)
	for _, c := range v.Citations {
		for _, a := range c.Query.Body {
			r.bodyDepsLocked(a.Predicate, make(map[string]bool), deps)
		}
	}
	r.citeDeps[name] = sortedKeys(deps)
	next := &viewSet{
		gen:     r.set.gen + 1,
		queries: append(slices.Clip(r.set.queries), v.Query),
		consts:  slices.Clip(r.set.consts),
	}
	for _, a := range v.Query.Body {
		for _, t := range a.Terms {
			if !t.IsVar && !slices.ContainsFunc(next.consts, func(c value.Value) bool { return identical(c, t.Const) }) {
				next.consts = append(next.consts, t.Const)
			}
		}
	}
	r.set = next
	return nil
}

// Check reports the error Add would return for v, without registering
// it, so a caller can journal a view only once the registry accepts it.
func (r *Registry) Check(v *View) error {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.checkLocked(v)
}

// checkLocked validates v against the schema and requires a name that is
// neither registered nor a base relation's.
func (r *Registry) checkLocked(v *View) error {
	if err := v.Validate(r.schema); err != nil {
		return err
	}
	name := v.Name()
	if _, dup := r.byName[name]; dup {
		return fmt.Errorf("citation: view %s already registered", name)
	}
	if r.schema.Relation(name) != nil {
		return fmt.Errorf("citation: view %s collides with a base relation", name)
	}
	return nil
}

// viewSet returns the current generation of the view set, read under
// the same lock as the view list so a concurrent Add cannot pair one
// generation with another's views.
func (r *Registry) viewSet() *viewSet {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.set
}

// MustAdd is Add but panics on error; for statically known view sets.
func (r *Registry) MustAdd(v *View) {
	if err := r.Add(v); err != nil {
		panic(err)
	}
}

// View returns the named view, or nil.
func (r *Registry) View(name string) *View {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.byName[name]
}

// citationView returns the named view (nil if none), the plan shape of
// each of its citation queries and its CitationDeps, read under one lock.
// The slices are shared: read them, do not modify them.
func (r *Registry) citationView(name string) (*View, []string, []string) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.byName[name], r.citeShapes[name], r.citeDeps[name]
}

// citationShapes returns the plan shape (eval.AppendShape) of each of v's
// citation queries with v's λ-parameters bound, as a citation atom binds
// them. A shape masks constants, so any value stands in for the
// parameters; the generator's plan cache keys citation-query plans by it.
func citationShapes(v *View) []string {
	sub := make(map[string]cq.Term, len(v.Query.Params))
	for _, p := range v.Query.Params {
		sub[p] = cq.Const(value.Int(0))
	}
	out := make([]string, len(v.Citations))
	for i, c := range v.Citations {
		out[i] = string(eval.AppendShape(nil, c.Query.Substitute(sub)))
	}
	return out
}

// Views returns the registered views in registration order.
func (r *Registry) Views() []*View {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*View, len(r.views))
	copy(out, r.views)
	return out
}

// Materialize evaluates the named view over db into a new relation of the
// view's head schema, loaded in ascending Tuple.Compare order. It always
// returns a fresh, mutable relation, so a caller that keeps instances of
// its own (evolution.Maintainer) may write to them. The generator's view
// cache fills through it too and freezes what it returns
// (Generator.viewCopy). An identity view is read as its frozen base
// relation instead (Generator.materializeAt), and copied only for a
// branch whose result shows that its rows do not ascend
// (Generator.evalBranch).
func (r *Registry) Materialize(db *storage.Database, name string) (*storage.Relation, error) {
	v := r.View(name)
	if v == nil {
		return nil, fmt.Errorf("citation: unknown view %s", name)
	}
	rs, err := v.HeadSchema(r.schema)
	if err != nil {
		return nil, err
	}
	inst := storage.NewRelation(rs)
	if err := eval.Materialize(db, v.Query, inst); err != nil {
		return nil, err
	}
	// No eager per-column index build: plans compiled over the mutable
	// instance EnsureIndex exactly the probe columns they select, and a
	// frozen one reads its columnar block (storage.ColumnarBlock).
	return inst, nil
}

// Len returns the number of registered views.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.views)
}

// ViewQueries returns the view queries in registration order, as consumed
// by the rewriting engine.
func (r *Registry) ViewQueries() []*cq.Query {
	return slices.Clone(r.viewSet().queries)
}

// QueryDeps returns the sorted set of base relations the named predicate
// transitively reads: a base relation reads itself, a view reads the
// base relations of its body atoms, and a view whose body references
// another view folds that view's dependencies in (the transitive,
// views-reading-views case). Citation queries are NOT included — they
// are evaluated lazily per atom and tracked by CitationDeps. Materialized
// view cache entries are keyed by the origin of these relations'
// content, so a write to none of them leaves the entry current.
func (r *Registry) QueryDeps(pred string) []string {
	r.mu.RLock()
	out := make(map[string]bool)
	r.bodyDepsLocked(pred, make(map[string]bool), out)
	r.mu.RUnlock()
	return sortedKeys(out)
}

// CitationDeps returns the sorted set of base relations the named view's
// citation queries transitively read. Resolved citation records (the
// generator's atom cache) depend on these relations — and only these:
// the view's own body never enters a citation query's evaluation.
func (r *Registry) CitationDeps(view string) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return slices.Clone(r.citeDeps[view])
}

// BodyDeps returns the sorted set of base relations q's body atoms
// transitively read, folding registered view predicates' dependencies in
// like QueryDeps. The citation engine keys a rewriting's prepared plan,
// and a pin's, on it.
func (r *Registry) BodyDeps(q *cq.Query) []string {
	r.mu.RLock()
	out := make(map[string]bool)
	for _, a := range q.Body {
		r.bodyDepsLocked(a.Predicate, make(map[string]bool), out)
	}
	r.mu.RUnlock()
	return sortedKeys(out)
}

// bodyDepsLocked accumulates the transitive base relations of pred into
// out. visited guards against (ill-formed) view cycles. Caller holds
// r.mu at least shared.
func (r *Registry) bodyDepsLocked(pred string, visited, out map[string]bool) {
	if visited[pred] {
		return
	}
	visited[pred] = true
	v := r.byName[pred]
	if v == nil {
		// A base relation (or an unknown predicate, which no snapshot
		// holds and is therefore harmless to record).
		out[pred] = true
		return
	}
	for _, a := range v.Query.Body {
		r.bodyDepsLocked(a.Predicate, visited, out)
	}
}

func sortedKeys(m map[string]bool) []string {
	if len(m) == 0 {
		return nil
	}
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// CoverageReport summarizes how a workload of queries is covered by the
// registered views.
type CoverageReport struct {
	Total     int // queries examined
	Covered   int // queries with a complete rewriting
	Partial   int // queries with only partial rewritings
	Uncovered int // queries with no rewriting at all
}

// CoverageRatio returns Covered/Total, or 0 for an empty workload.
func (c CoverageReport) CoverageRatio() float64 {
	if c.Total == 0 {
		return 0
	}
	return float64(c.Covered) / float64(c.Total)
}

// AnalyzeCoverage classifies each workload query as covered, partially
// covered, or uncovered by the registry's views.
func (r *Registry) AnalyzeCoverage(workload []*cq.Query, method rewrite.Method) (CoverageReport, error) {
	rep := CoverageReport{Total: len(workload)}
	views := r.ViewQueries()
	for _, q := range workload {
		full, err := rewrite.Rewrite(q, views, rewrite.Options{Method: method, MaxRewritings: 1})
		if err != nil {
			return rep, fmt.Errorf("citation: coverage of %s: %w", q.Name, err)
		}
		if len(full.Rewritings) > 0 {
			rep.Covered++
			continue
		}
		part, err := rewrite.Rewrite(q, views, rewrite.Options{
			Method:        method,
			MaxRewritings: 1,
			AllowPartial:  true,
		})
		if err != nil {
			return rep, fmt.Errorf("citation: partial coverage of %s: %w", q.Name, err)
		}
		usable := false
		for _, rw := range part.Rewritings {
			if len(rw.ViewAtoms) > 0 {
				usable = true
				break
			}
		}
		if usable {
			rep.Partial++
		} else {
			rep.Uncovered++
		}
	}
	return rep, nil
}
