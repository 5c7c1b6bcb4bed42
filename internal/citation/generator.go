package citation

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/citeexpr"
	"repro/internal/cq"
	"repro/internal/eval"
	"repro/internal/format"
	"repro/internal/policy"
	"repro/internal/rewrite"
	"repro/internal/storage"
	"repro/internal/trace"
	"repro/internal/value"
)

// ErrNoRewriting is returned when the registered views admit no rewriting
// of the query (not even a partial one, when partial rewritings are
// enabled) and therefore no citation can be constructed.
var ErrNoRewriting = errors.New("citation: query has no rewriting over the registered views")

// Generator constructs citations for conjunctive queries over one database
// using one view registry and one combination policy.
//
// A Generator is safe for concurrent Cite calls: its caches are
// singleflight (each view copy is materialized, each citation atom
// resolved and each plan compiled exactly once under concurrent demand,
// later callers block until the value is ready), keyed by the snapshot
// content each entry read, and bounded by entry count, so any number of
// cited versions costs at most the bounds. A cite runs on its caller's
// goroutine: it evaluates its own rewritings in order, each in one walk
// of its plan, and caches no evaluation. The configuration
// fields (Method, AllowPartial, CostPruned) must be set before the
// generator is shared across goroutines; the view registry must likewise
// be fully populated first.
type Generator struct {
	reg *Registry
	db  *storage.Database

	polMu sync.RWMutex
	pol   policy.Policy

	// Method selects the rewriting algorithm.
	Method rewrite.Method
	// AllowPartial falls back to partial rewritings when no complete
	// rewriting exists; residual base atoms contribute no citation.
	AllowPartial bool
	// CostPruned enables schema-level pruning (paper §3, "calculating
	// citations"): instead of evaluating every rewriting and applying +R
	// afterwards, the generator estimates each rewriting's citation size
	// from relation statistics and evaluates only the best one. Only
	// effective when the policy's +R strategy selects a single branch.
	CostPruned bool

	// The three caches memoize the pipeline's steps under (origin,
	// name/shape) keys (genKey): views holds frozen view copies
	// (viewCopy; deps: Registry.QueryDeps) — an identity view is read
	// straight from the snapshot and has an entry only for its copy in
	// answer order — atoms resolved citation records (deps:
	// Registry.CitationDeps), and plans the prepared plan of one
	// rewriting or citation-query shape (eval.AppendShape; deps: the
	// rewriting's BodyDeps or the view's CitationDeps), which every query
	// of the shape runs with its own constants over its own snapshot.
	// Every cite reads a frozen snapshot, and an entry is keyed by the
	// origin of the content its deps read there, so it never goes stale
	// and serves every snapshot — the head's or a committed version's —
	// that shares that content. Each cache holds at most its bound of
	// entries (maxViewEntries, maxAtomEntries, maxPlanEntries) and evicts
	// by SIEVE past it; no entry holds a snapshot (DESIGN.md §3, §6, §7).
	views *depCache[*storage.Relation]
	atoms *depCache[format.Record]
	plans *depCache[*eval.Plan]

	// headMu guards head, the snapshot head cites read (Head), and
	// headGen, the bound database's MutationGen when it was taken.
	headMu  sync.Mutex
	head    *storage.Database
	headGen uint64

	// memo answers the rewriting stage by query shape (memoEntry), at
	// most maxMemoEntries shapes; hits and misses count its lookups.
	memo                 *depCache[*memoEntry]
	memoHits, memoMisses atomic.Int64
}

// Request carries the per-call parameters of one citation generation.
// The zero value cites against the head's snapshot (Head) with the
// generator's default policy and rewriting method — so
// Cite(q) ≡ CiteContext(ctx, q, Request{}).
type Request struct {
	// DB is the frozen snapshot to cite, the head's or a committed
	// version's; nil means Head(), and a mutable database is refused.
	// Cache entries are keyed by the snapshot content they read, and
	// shared with every snapshot holding the same content.
	DB *storage.Database
	// Policy, when non-nil, overrides the generator's default combination
	// policy for this call only.
	Policy *policy.Policy
	// Method, when non-nil, overrides the rewriting algorithm for this
	// call only.
	Method *rewrite.Method
}

// NewGenerator builds a Generator with the paper's default policy.
func NewGenerator(reg *Registry, db *storage.Database) *Generator {
	return &Generator{
		reg: reg, db: db, pol: policy.Default(),
		views: newDepCache[*storage.Relation](maxViewEntries),
		atoms: newDepCache[format.Record](maxAtomEntries),
		plans: newDepCache[*eval.Plan](maxPlanEntries),
		memo:  newDepCache[*memoEntry](maxMemoEntries),
	}
}

// SetPolicy replaces the combination policy.
func (g *Generator) SetPolicy(p policy.Policy) {
	g.polMu.Lock()
	defer g.polMu.Unlock()
	g.pol = p
}

// Policy returns the current combination policy.
func (g *Generator) Policy() policy.Policy {
	g.polMu.RLock()
	defer g.polMu.RUnlock()
	return g.pol
}

// Registry returns the generator's view registry.
func (g *Generator) Registry() *Registry { return g.reg }

// Database returns the generator's database.
func (g *Generator) Database() *storage.Database { return g.db }

// InvalidateCache empties the view, atom and plan caches, counting no
// eviction. No change needs it for correctness — entries are keyed by
// the content they read — so only cold-cache experiments and tests call
// it. In-flight fills finish for the callers already holding their
// entries and are re-done on next demand.
func (g *Generator) InvalidateCache() {
	g.views.purge()
	g.atoms.purge()
	g.plans.purge()
}

// CacheCounters is a point-in-time snapshot of the generator's view,
// atom and plan caches.
type CacheCounters struct{ Views, Atoms, Plans CacheCount }

// CacheCount is one cache's entries and its evictions at the bound so
// far.
type CacheCount struct {
	Entries int
	Evicted int64
}

// Counters snapshots the caches' entries and evictions.
func (g *Generator) Counters() CacheCounters {
	return CacheCounters{g.views.stats(), g.atoms.stats(), g.plans.stats()}
}

// TupleCitation is the citation of a single answer tuple: its record
// after policy evaluation, and the branch tables its formal expressions
// are built from on each call (Expr, Selected).
type TupleCitation struct {
	Tuple  storage.Tuple
	Record format.Record

	branches []*branch // the cite's evaluated rewritings
	sel      int       // the branch Record evaluates; -1: all holding Tuple
}

// Expr builds the tuple's full formal expression: +R over the
// expression of each rewriting whose answer holds the tuple.
func (tc TupleCitation) Expr() citeexpr.Expr {
	var out citeexpr.AltR
	for _, b := range tc.branches {
		if b.has(tc.Tuple) {
			out.Children = append(out.Children, b.expr(tc.Tuple))
		}
	}
	return out
}

// Selected builds the expression the +R policy chose, the one Record
// evaluates: a rewriting's, or under AllBranches + over all of them.
func (tc TupleCitation) Selected() citeexpr.Expr {
	if tc.sel < 0 {
		return citeexpr.Alt{Children: tc.Expr().(citeexpr.AltR).Children}
	}
	return tc.branches[tc.sel].expr(tc.Tuple)
}

// Stats reports the work performed while generating a citation.
type Stats struct {
	RewritingsFound     int
	RewritingsEvaluated int
	CandidatesExamined  int
	AtomsResolved       int
	Pruned              bool
}

// Result is the citation of a query answer: per-tuple citations plus the
// aggregated result-level citation (the paper's Agg), a fresh record,
// whose formal expression Expr builds on demand.
type Result struct {
	Query      *cq.Query
	Rewritings []*rewrite.Rewriting
	Tuples     []TupleCitation
	Record     format.Record
	Stats      Stats
	// Reads is the sorted set of base relations this citation transitively
	// read: for every rewriting found (evaluated or not — cost pruning
	// consults relation statistics of all of them), the body deps and
	// citation-query deps of its views plus its residual base atoms. Every
	// cite of one query shape shares the slice: read it, do not modify it.
	Reads []string
	// Origin is the origin of Reads in the snapshot the citation read
	// (storage.Database.Origin). A recomputation against any snapshot
	// that gives Reads the same origin is byte-identical, which is the
	// rule result caches above the engine validate entries by (DESIGN.md
	// §3).
	Origin uint64

	// Query's body deps (Registry.BodyDeps) and plan key (pinKey), for
	// Answer; zero in a Result the caller built.
	deps []string
	pin  string
}

// Expr builds the answer's formal expression: Agg over every tuple's
// selected one. Expressions are built from the branch tables on each
// call, which serving a citation never makes.
func (r *Result) Expr() citeexpr.Expr {
	var children []citeexpr.Expr
	for _, tc := range r.Tuples {
		children = append(children, tc.Selected())
	}
	return citeexpr.Agg{Children: children}
}

// Cite constructs the citation for q's answer over the generator's
// database (Definitions 2.1 and 2.2 plus the Agg step). The query must
// range over base relations. Alternative rewritings are evaluated in
// order, on the caller's goroutine.
func (g *Generator) Cite(q *cq.Query) (*Result, error) {
	//lint:detach context-free public API: Cite is the no-cancellation convenience wrapper over CiteContext
	return g.CiteContext(context.Background(), q, Request{})
}

// CiteContext is Cite with per-call parameters and cooperative
// cancellation: req selects the target snapshot and overrides policy
// and rewriting method for this call only, and the evaluation polls ctx
// — between pipeline stages, every few hundred candidate tuples of each
// join, and per resolved tuple — so canceling ctx aborts with ctx.Err()
// promptly instead of finishing the enumeration. The cite reads one
// frozen snapshot, and every cached step is keyed by the snapshot
// content it read, so cites race neither writes nor commits nor each
// other.
func (g *Generator) CiteContext(ctx context.Context, q *cq.Query, req Request) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	db := req.DB
	if db == nil {
		db = g.Head()
	}
	if !db.Frozen() {
		return nil, fmt.Errorf("citation: cite of %s: target database is not a frozen snapshot", q.Name)
	}
	pol := g.Policy()
	if req.Policy != nil {
		pol = *req.Policy
	}
	method := g.Method
	if req.Method != nil {
		method = *req.Method
	}
	res := &Result{Query: q}

	// Stage: rewriting enumeration. The span records how many candidate
	// rewritings the search examined and how many survived — the first
	// place a slow /cite can burn time (combinatorial view sets) — and
	// whether the shape memo answered it; a hit reports the candidates
	// its entry's search examined.
	rwSpan := trace.SpanFromContext(ctx).StartChild("rewrite")
	rewritings, prep, hit, err := g.rewriteStage(q, method)
	if err != nil {
		rwSpan.End()
		return nil, err
	}
	if hit {
		rwSpan.Set("memo", "hit")
	} else {
		rwSpan.Set("memo", "miss")
	}
	if prep.partial {
		rwSpan.Set("partial", true)
	}
	res.Stats.CandidatesExamined = prep.candidates
	rwSpan.Add("candidates_examined", int64(res.Stats.CandidatesExamined))
	rwSpan.Add("rewritings_found", int64(len(rewritings)))
	rwSpan.End()
	if len(rewritings) == 0 {
		return nil, fmt.Errorf("%w: %s", ErrNoRewriting, q.Name)
	}
	res.Rewritings = rewritings
	res.Stats.RewritingsFound = len(rewritings)
	res.Reads, res.deps, res.pin = prep.reads, prep.deps, prep.pin
	res.Origin = db.Origin(res.Reads)

	evalSet := prep.plans
	if g.CostPruned && pol.AltR != policy.AllBranches {
		best, err := g.selectByEstimate(db, rewritings, pol)
		if err != nil {
			return nil, err
		}
		evalSet = evalSet[best : best+1]
		res.Stats.Pruned = true
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Stage: annotated evaluation of the surviving rewritings. Each
	// alternative gets its own child span ("branch") with its outcome;
	// the eval package attaches its work counters to it.
	evalCtx, evalSpan := trace.StartSpan(ctx, "eval")
	evalSpan.Set("branches", len(evalSet))
	evalSpan.Set("pruned", res.Stats.Pruned)
	branches, err := g.evalBranches(evalCtx, evalSet, prep.params, db)
	evalSpan.End()
	if err != nil {
		return nil, err
	}
	res.Stats.RewritingsEvaluated = len(evalSet)

	// Union of answer tuples across branches, each branch's in answer
	// order after the earlier branches' (a tuple is new unless an earlier
	// branch's index holds it), sorted into canonical tuple order.
	tuples := make([]storage.Tuple, 0, len(branches[0].sorted))
	for i, b := range branches {
		for _, t := range b.sorted {
			if !slices.ContainsFunc(branches[:i], func(e *branch) bool { return e.has(t) }) {
				tuples = append(tuples, t)
			}
		}
	}
	slices.SortFunc(tuples, storage.Tuple.Compare)

	// Choose the +R branch globally, the way the paper's closing example
	// does: the size of a rewriting's citation is the number of distinct
	// citation atoms it contributes across the whole answer ("the
	// estimated size of the citation using Q1 would therefore be
	// proportional to the size of Family"), its table's atoms, so one
	// rewriting is selected for the entire result.
	chosen := pol.Pick(len(branches), func(i int) int { return len(branches[i].atoms) })

	// Stage: policy aggregation — branch selection, citation-atom
	// resolution (the atom cache lives under it) and the Agg fold.
	polSpan := trace.SpanFromContext(ctx).StartChild("policy")
	defer func() {
		polSpan.Add("atoms_resolved", int64(res.Stats.AtomsResolved))
		polSpan.End()
	}()
	polSpan.Set("tuples", len(tuples))
	// run evaluates t's run in branch i, resolving each distinct atom of
	// the branch once per cite.
	recs := make([][]format.Record, len(branches))
	run := func(i int, t storage.Tuple) (format.Record, error) {
		b := branches[i]
		return pol.EvalRun(b.run(t), b.width, func(a uint32) (rec format.Record, err error) {
			if recs[i] == nil {
				recs[i] = make([]format.Record, len(b.atoms))
			}
			if rec = recs[i][a]; rec == nil {
				rec, err = g.resolve(db, b.atoms[a].view, b.atoms[a].params, b.atoms[a].key, &res.Stats)
				recs[i][a] = rec
			}
			return rec, err
		})
	}
	res.Tuples = make([]TupleCitation, len(tuples))
	records := make([]format.Record, len(tuples))
	for i, tup := range tuples {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		tc := TupleCitation{Tuple: tup, branches: branches, sel: chosen}
		var err error
		if chosen >= 0 && branches[chosen].has(tup) {
			tc.Record, err = run(chosen, tup)
		} else {
			var holding []int
			for j, b := range branches {
				if b.has(tup) {
					holding = append(holding, j)
				}
			}
			if chosen >= 0 {
				// The chosen rewriting's answer lacks the tuple: +R picks
				// among those holding it by the sizes of their runs.
				tc.sel = holding[pol.Pick(len(holding), func(j int) int { return branches[holding[j]].size(tup) })]
				tc.Record, err = run(tc.sel, tup)
			} else {
				// AllBranches: + over the runs of every branch holding it.
				alts := make([]format.Record, len(holding))
				for k := 0; k < len(holding) && err == nil; k++ {
					alts[k], err = run(holding[k], tup)
				}
				tc.Record = pol.Alt.Fold(alts)
			}
		}
		if err != nil {
			return nil, err
		}
		res.Tuples[i], records[i] = tc, tc.Record
	}
	res.Record = pol.EvalAgg(records)
	return res, nil
}

// rewriteStage runs the rewriting stage for q with method: the complete
// rewritings over the registered views or, when none exists and
// AllowPartial is set, the partial rewritings that use a view. The shape
// memo answers it when a query of q's shape was rewritten over the same
// view set before (hit reports that); a miss runs rewriteShape once for
// every concurrent cite of the shape. The returned stage holds the cite's
// rewritings planned and the shape's entry, which carries the candidates
// examined and what the pipeline derives from the rewritings alone: the
// read-set, the dependency sets and the views' parameter positions. The
// entry's fields are shared by every cite of the shape and must not be
// modified.
func (g *Generator) rewriteStage(q *cq.Query, method rewrite.Method) ([]*rewrite.Rewriting, stage, bool, error) {
	vs := g.reg.viewSet()
	var kb [256]byte
	var cb [8]value.Value
	key, classes := shapeKey(kb[:0], q, vs, method, g.AllowPartial, cb[:0])
	e, hit, err := g.memo.get(genKey{0, string(key)}, func() (*memoEntry, error) {
		return g.rewriteShape(q, vs, method, classes)
	})
	if hit {
		g.memoHits.Add(1)
	} else {
		g.memoMisses.Add(1)
	}
	if err != nil {
		return nil, stage{}, hit, err
	}
	rewritings, plans := e.instantiate(classes)
	return rewritings, stage{e, plans}, hit, nil
}

// rewriteShape runs the rewriter for q over vs and returns the memo entry
// of q's shape, whose class constants are classes.
func (g *Generator) rewriteShape(q *cq.Query, vs *viewSet, method rewrite.Method, classes []value.Value) (*memoEntry, error) {
	opts := rewrite.Options{Method: method}
	rres, err := rewrite.Rewrite(q, vs.queries, opts)
	if err != nil {
		return nil, err
	}
	e := &memoEntry{candidates: rres.CandidatesExamined, mcds: rres.MCDCount}
	rewritings := rres.Rewritings
	if len(rewritings) == 0 && g.AllowPartial {
		e.partial = true
		opts.AllowPartial = true
		pres, err := rewrite.Rewrite(q, vs.queries, opts)
		if err != nil {
			return nil, err
		}
		e.candidates += pres.CandidatesExamined
		e.mcds += pres.MCDCount
		for _, rw := range pres.Rewritings {
			if len(rw.ViewAtoms) > 0 {
				rewritings = append(rewritings, rw)
			}
		}
	}
	if e.params, err = g.paramPositions(rewritings); err != nil {
		return nil, err
	}
	e.reads, e.deps, e.pin = g.readSet(rewritings), g.reg.BodyDeps(q), pinKey(q)
	// The entry keeps the rewriter's results: cites get copies.
	for _, rw := range rewritings {
		rq := rw.AsQuery("rw")
		e.plans = append(e.plans, planned{rw: rw, deps: g.reg.BodyDeps(rq), shape: string(eval.AppendShape(nil, rq))})
	}
	e.from = slices.Clone(classes)
	return e, nil
}

// RewriteMemoStats snapshots the rewriting memo's hit and miss counters,
// its entry count and its evictions at the bound.
func (g *Generator) RewriteMemoStats() MemoStats {
	c := g.memo.stats()
	return MemoStats{Hits: g.memoHits.Load(), Misses: g.memoMisses.Load(), Entries: c.Entries, Evicted: c.Evicted}
}

// readSet computes the union of base relations a citation built from
// these rewritings transitively reads: every view atom contributes its
// body deps (the materialized instance) and its citation-query deps (the
// resolved records); residual base atoms contribute themselves. The
// union ranges over ALL rewritings found, not only the evaluated set —
// cost pruning estimates sizes from every rewriting's relation
// statistics, so a delta to any of them can change which branch is
// chosen and therefore the result.
func (g *Generator) readSet(rewritings []*rewrite.Rewriting) []string {
	reads := make(map[string]bool)
	seen := make(map[string]bool) // view names already folded in
	for _, rw := range rewritings {
		for _, va := range rw.ViewAtoms {
			if seen[va.ViewName] {
				continue
			}
			seen[va.ViewName] = true
			for _, d := range g.reg.QueryDeps(va.ViewName) {
				reads[d] = true
			}
			for _, d := range g.reg.CitationDeps(va.ViewName) {
				reads[d] = true
			}
		}
		for _, ba := range rw.BaseAtoms {
			reads[ba.Predicate] = true
		}
	}
	out := make([]string, 0, len(reads))
	for r := range reads {
		out = append(out, r)
	}
	sort.Strings(out)
	return out
}

// evalBranches evaluates every planned rewriting with citation
// annotations against the snapshot db, in order; canceling ctx aborts it
// with ctx.Err(). Every cite evaluates its own rewritings: a branch is
// cheap to tabulate from a prepared plan, and one kept per distinct
// query would grow a fixed head's caches with every query cited.
func (g *Generator) evalBranches(ctx context.Context, evalSet []planned, params map[string][]int, db *storage.Database) ([]*branch, error) {
	branches := make([]*branch, len(evalSet))
	for i := range evalSet {
		b, err := g.evalBranch(ctx, i, &evalSet[i], params, db)
		if err != nil {
			return nil, err
		}
		branches[i] = b
	}
	return branches, nil
}

// evalBranch performs one rewriting's annotated evaluation. One span per
// alternative rewriting: view lookups, the plan lookup and the
// enumeration itself nest under it, so a trace shows which alternative
// cost what. The plan comes from the plan cache, keyed by the
// rewriting's shape (planned.shape) and the origin of its body deps: the
// plan compiled for an earlier query of the shape over the same content
// is run over this cite's instance with the rewriting's constants, and
// only a plan-cache miss compiles.
func (g *Generator) evalBranch(ctx context.Context, idx int, p *planned, params map[string][]int, db *storage.Database) (*branch, error) {
	bctx, bsp := trace.StartSpan(ctx, "branch")
	defer bsp.End()
	bsp.Set("alt", idx)
	bsp.Set("views", len(p.rw.ViewAtoms))
	bsp.Set("base_atoms", len(p.rw.BaseAtoms))
	inst, unordered, err := g.instanceFor(bctx, p.rw, db)
	if err != nil {
		bsp.Set("outcome", "materialize-error")
		return nil, err
	}
	var ab [4]value.Value
	args := eval.Args(ab[:0], &p.q)
	origin := db.Origin(p.deps)
	// run tabulates the branch over inst with the plan of p's shape.
	run := func() (*branch, error) {
		psp := trace.SpanFromContext(bctx).StartChild("plan")
		plan, hit, err := g.plans.get(genKey{origin, p.shape}, func() (*eval.Plan, error) { return eval.Compile(inst, &p.q) })
		if hit {
			psp.Set("cache", "hit")
		} else {
			psp.Set("cache", "miss")
		}
		psp.End()
		if err != nil {
			bsp.Set("outcome", "compile-error")
			return nil, err
		}
		b, err := tabulate(bctx, plan, inst, args, params)
		if err != nil {
			bsp.Set("outcome", "eval-error")
		}
		return b, err
	}
	b, err := run()
	if err != nil {
		return nil, err
	}
	// Some views may be aliases whose rows do not ascend. The walk meets
	// their rows in row order, not in answer order, but the result shows
	// that order only where an answer has several derivations (the table
	// then has runs): in the order of its + alternatives, or in the atom
	// order its run keeps of a monomial two derivations hold in
	// different orders. It shows too where answers tie under
	// Tuple.Compare or hold a NaN (their order after sorting). If neither
	// happened, the result is the one the views in answer order give;
	// else evaluate again over their copies in answer order, from the
	// view cache. The cost of an alias thus does not depend on its row
	// order unless the result does. A copy holds the tuples its alias
	// holds, so it has the alias's statistics, and the plan of the shape
	// runs over the copies as it ran over the aliases.
	if len(unordered) > 0 && (b.runs != nil || !storage.Ascending(slices.Values(b.sorted))) {
		bsp.Set("resorted", len(unordered))
		for _, name := range unordered {
			rel, _, err := g.viewCopy(db, name)
			if err != nil {
				bsp.Set("outcome", "materialize-error")
				return nil, err
			}
			inst.views[inst.index(name)].rel = rel
		}
		if b, err = run(); err != nil {
			return nil, err
		}
	}
	bsp.Set("outcome", "ok")
	return b, nil
}

// CiteTuple returns the citation of a single answer tuple of q, or an
// error if the tuple is not in the answer.
func (g *Generator) CiteTuple(q *cq.Query, t storage.Tuple) (*TupleCitation, error) {
	res, err := g.Cite(q)
	if err != nil {
		return nil, err
	}
	for i := range res.Tuples {
		if res.Tuples[i].Tuple.Equal(t) {
			return &res.Tuples[i], nil
		}
	}
	return nil, fmt.Errorf("citation: tuple %s is not in the answer of %s", t, q.Name)
}

// Answer returns the answer of the query res cites over the frozen
// snapshot db itself, in Tuple.Compare order, and whether the plan cache
// held its plan: the re-execution with which a fixity pin digests a
// cited query's answer at its committed version (core.System,
// fixity.Store.Pin). The plan is the prepared plan of the query's shape
// over db's content of the relations the query reads, run over db with
// its constants, so only the first query of a shape over that content,
// in any snapshot holding it, compiles. Those relations and the plan's
// key (pinKey) come from the query's rewriting-memo entry, which renders
// them once for every query of its shape, or are derived here for a
// Result the caller built.
func (g *Generator) Answer(ctx context.Context, res *Result, db *storage.Database) ([]storage.Tuple, bool, error) {
	q := res.Query
	if db == nil || !db.Frozen() {
		return nil, false, fmt.Errorf("citation: answer of %s: target database is not a frozen snapshot", q.Name)
	}
	var ab [4]value.Value
	key, deps := res.pin, res.deps
	if key == "" {
		key, deps = pinKey(q), g.reg.BodyDeps(q)
	}
	plan, hit, err := g.plans.get(genKey{db.Origin(deps), key}, func() (*eval.Plan, error) { return eval.Compile(db, q) })
	if err != nil {
		return nil, hit, err
	}
	tuples, err := plan.EvalContext(ctx, db, eval.Args(ab[:0], q))
	return tuples, hit, err
}

// pinKey returns the plan key of q's pin (Answer): q's shape with the
// byte 1 appended, which no shape (a self-delimiting encoding) equals, so
// no rewriting's plan can take it: those run over view instances, while
// a pin's runs over the snapshot. A rewriting-memo entry's queries share
// one shape, so the entry renders the key once for all of them.
func pinKey(q *cq.Query) string {
	var sb [64]byte
	return string(append(eval.AppendShape(sb[:0], q), 1))
}

// instanceFor fetches the view instances a rewriting references and
// combines them with db for residual atoms. unordered names those of
// them that list their view's answer out of order. The instance is one
// object, which holds the rewriting's few (view, relation) pairs inline,
// and a pointer, so each plan run converts it to eval.Instance without
// an allocation.
func (g *Generator) instanceFor(ctx context.Context, rw *rewrite.Rewriting, db *storage.Database) (inst *layeredInstance, unordered []string, err error) {
	inst = &layeredInstance{base: db}
	inst.views = inst.inline[:0]
	for _, va := range rw.ViewAtoms {
		if inst.index(va.ViewName) >= 0 {
			continue
		}
		rel, ordered, err := g.materializeAt(ctx, db, va.ViewName)
		if err != nil {
			return nil, nil, err
		}
		inst.views = append(inst.views, viewInstance{va.ViewName, rel})
		if !ordered {
			unordered = append(unordered, va.ViewName)
		}
	}
	return inst, unordered, nil
}

// layeredInstance resolves view predicates from materialized instances and
// everything else from the base database. views is inline's prefix while
// the rewriting reads no more views than inline holds.
type layeredInstance struct {
	base   *storage.Database
	views  []viewInstance
	inline [4]viewInstance
}

// viewInstance is one view's instance in a layeredInstance.
type viewInstance struct {
	name string
	rel  *storage.Relation
}

func (l *layeredInstance) Relation(name string) *storage.Relation {
	if i := l.index(name); i >= 0 {
		return l.views[i].rel
	}
	return l.base.Relation(name)
}

// index returns the position of the named view's instance in views, or
// -1.
func (l *layeredInstance) index(name string) int {
	for i := range l.views {
		if l.views[i].name == name {
			return i
		}
	}
	return -1
}

// Head returns the frozen snapshot head cites read: the bound database
// itself when that is frozen, else a snapshot of it, taken on first use
// and reused while the database's MutationGen is unchanged — so the next
// cite after any write, journaled or direct, reads it. Head must not
// race writes to the bound database; core.System calls it under its
// engine lock.
func (g *Generator) Head() *storage.Database {
	if g.db.Frozen() {
		return g.db
	}
	gen := g.db.MutationGen()
	g.headMu.Lock()
	defer g.headMu.Unlock()
	if g.head == nil || g.headGen != gen {
		g.head, g.headGen = g.db.Snapshot(), gen
	}
	return g.head
}

// materializeAt returns the named view's instance over the snapshot db,
// and whether its rows list the view's answer in answer order (ascending
// Tuple.Compare, as Registry.Materialize loads it).
//
// An identity view is read straight from db: its instance is the frozen
// base relation itself (identityRelation), found without a cache lookup,
// and in answer order iff its rows ascend (Relation.RowsAscend). The
// span says alias: true and cache: "hit", since nothing is materialized.
// Any other view is a frozen copy from the view cache (viewCopy).
func (g *Generator) materializeAt(ctx context.Context, db *storage.Database, viewName string) (*storage.Relation, bool, error) {
	sp := trace.SpanFromContext(ctx).StartChild("views")
	defer sp.End()
	if sp != nil {
		// Boxing the name allocates, even for a nil span.
		sp.Set("view", viewName)
	}
	if rel := g.identityRelation(db, viewName); rel != nil {
		sp.Set("alias", true)
		sp.Set("cache", "hit")
		return rel, rel.RowsAscend(), nil
	}
	rel, hit, err := g.viewCopy(db, viewName)
	if hit {
		sp.Set("cache", "hit")
	} else {
		sp.Set("cache", "miss")
	}
	return rel, true, err
}

// viewCopy returns the named view materialized over the snapshot db into
// a frozen copy in answer order, and whether the view cache already held
// it. Fills are singleflight: under concurrent demand exactly one
// goroutine materializes, the rest block until the copy is ready (a
// materializeAt "hit" with a long span blocked on a neighbour's fill).
// Materialization always runs to completion — it is shared work, so no
// caller's context may cancel it for the others. A failed fill is not
// cached, so transient errors are retried on next demand. The copy is
// frozen in O(1): nobody writes a cached instance, so plans read it
// through its columnar block.
func (g *Generator) viewCopy(db *storage.Database, viewName string) (*storage.Relation, bool, error) {
	deps := g.reg.QueryDeps(viewName)
	return g.views.get(genKey{db.Origin(deps), viewName}, func() (*storage.Relation, error) {
		rel, err := g.reg.Materialize(db, viewName)
		if err != nil {
			return nil, err
		}
		return rel.Snapshot(), nil
	})
}

// identityRelation returns the snapshot db's frozen base relation of the
// named view, or nil when the view must be materialized: it is not an
// identity view (identityBase), or db's relation is not frozen. The
// relation holds exactly the view's answer, and plans look relations up
// by atom predicate, so its schema's name does not matter.
func (g *Generator) identityRelation(db *storage.Database, viewName string) *storage.Relation {
	v := g.reg.View(viewName)
	if v == nil {
		return nil
	}
	base, ok := identityBase(v.Query)
	if !ok {
		return nil
	}
	if rel := db.Relation(base); rel != nil && rel.Frozen() {
		return rel
	}
	return nil
}

// identityBase reports whether q is an identity view — one body atom
// whose terms are distinct variables, listed by the head in the same
// order — and names its base relation. Such a view's answer is exactly
// the base relation's tuples. λ-parameters do not matter.
func identityBase(q *cq.Query) (string, bool) {
	if len(q.Body) != 1 || len(q.Head) != len(q.Body[0].Terms) {
		return "", false
	}
	terms := q.Body[0].Terms
	for i, t := range terms {
		if !t.IsVar || !q.Head[i].IsVar || q.Head[i].Name != t.Name ||
			slices.ContainsFunc(terms[:i], func(u cq.Term) bool { return u.Name == t.Name }) {
			return "", false
		}
	}
	return q.Body[0].Predicate, true
}

// paramPositions maps every view the rewritings use to its parameter
// positions in the view head.
func (g *Generator) paramPositions(rewritings []*rewrite.Rewriting) (map[string][]int, error) {
	positions := make(map[string][]int)
	for _, rw := range rewritings {
		for _, va := range rw.ViewAtoms {
			if _, done := positions[va.ViewName]; done {
				continue
			}
			v := g.reg.View(va.ViewName)
			if v == nil {
				return nil, fmt.Errorf("citation: unknown view %s", va.ViewName)
			}
			pos, err := v.ParamPositions()
			if err != nil {
				return nil, err
			}
			positions[va.ViewName] = pos
		}
	}
	return positions, nil
}

// resolve returns the citation record of view's atom with params, whose
// key is key (appendAtomKey), over the snapshot db: the view's citation
// queries evaluated with the parameter values and its citation function
// applied. The atom cache holds records under the key and the origin of
// the citation queries' content; it is shared across concurrent cites and
// singleflight, so a hot atom demanded by many citers at once is resolved
// by exactly one of them (failures are evicted so they retry). A
// resolution resolve performs itself counts in stats, when non-nil.
func (g *Generator) resolve(db *storage.Database, view string, params []value.Value, key string, stats *Stats) (format.Record, error) {
	v, shapes, deps := g.reg.citationView(view)
	origin := db.Origin(deps)
	rec, hit, err := g.atoms.get(genKey{origin, key},
		func() (format.Record, error) { return g.resolveAtom(db, v, shapes, view, params, origin) })
	if !hit && err == nil && stats != nil {
		stats.AtomsResolved++
	}
	return rec, err
}

// resolveAtom evaluates the citation queries of view v (named view, nil
// if unknown) with the atom's parameter values bound against the
// snapshot db, whose content of the view's CitationDeps has the given
// origin, and applies the citation function. Each citation query runs
// the prepared plan of its shape (shapes, from Registry.citationView)
// from the plan cache over db with the parameters as arguments: only the
// first atom of a view over this content compiles, and none substitutes.
func (g *Generator) resolveAtom(db *storage.Database, v *View, shapes []string, view string, params []value.Value, origin uint64) (format.Record, error) {
	if v == nil {
		return nil, fmt.Errorf("citation: unknown view %s in citation atom", view)
	}
	if len(params) != len(v.Query.Params) {
		return nil, fmt.Errorf("citation: atom %s has %d parameters, view declares %d",
			citeexpr.NewAtom(view, params...), len(params), len(v.Query.Params))
	}
	bindings := make([]ParamBinding, len(params))
	for i, p := range v.Query.Params {
		bindings[i] = ParamBinding{Name: p, Value: params[i].String()}
	}
	rows := make(map[string][]storage.Tuple, len(v.Citations))
	var ab [4]value.Value
	for i, c := range v.Citations {
		plan, _, err := g.plans.get(genKey{origin, shapes[i]}, func() (*eval.Plan, error) {
			sub := make(map[string]cq.Term, len(params))
			for j, p := range v.Query.Params {
				sub[p] = cq.Const(params[j])
			}
			return eval.Compile(db, c.Query.Substitute(sub))
		})
		if err != nil {
			return nil, fmt.Errorf("citation: evaluating citation query %s: %w", c.Query.Name, err)
		}
		rows[c.Query.Name] = plan.Eval(db, citationArgs(ab[:0], c.Query, v.Query.Params, params))
	}
	fn := v.Fn
	if fn == nil {
		fn = DefaultFunction
	}
	return fn(v, bindings, rows), nil
}

// citationArgs appends to dst the arguments of citation query c with the
// view's λ-parameters names bound to vals: its constants and the values
// of its parameter occurrences, in term order — eval.Args of c with the
// parameters substituted, without building that query.
func citationArgs(dst []value.Value, c *cq.Query, names []string, vals []value.Value) []value.Value {
	for _, t := range c.Head {
		dst = appendArg(dst, t, names, vals)
	}
	for _, a := range c.Body {
		for _, t := range a.Terms {
			dst = appendArg(dst, t, names, vals)
		}
	}
	return dst
}

// appendArg appends t's argument, if it has one: a constant's value or a
// bound parameter's.
func appendArg(dst []value.Value, t cq.Term, names []string, vals []value.Value) []value.Value {
	if !t.IsVar {
		return append(dst, t.Const)
	}
	if i := slices.Index(names, t.Name); i >= 0 {
		return append(dst, vals[i])
	}
	return dst
}
