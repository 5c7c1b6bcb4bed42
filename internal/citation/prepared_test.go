package citation

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"testing"

	"repro/internal/citeexpr"
	"repro/internal/cq"
	"repro/internal/eval"
	"repro/internal/format"
	"repro/internal/gtopdb"
	"repro/internal/trace"
	"repro/internal/value"
)

// TestPreparedPlansServeFreshConstants: once one cite has warmed each
// serving shape, cites with fresh constants compile no plan. Over a
// 2,000-family snapshot, 400 cites of new families and targets miss the
// atom cache, yet every plan span of their traces says
// cache "hit" and the plan cache takes no fill. Each Result must render,
// as JSON, byte for byte as a cite of the same query by a fresh
// generator, whose every plan is compiled from that query.
func TestPreparedPlansServeFreshConstants(t *testing.T) {
	const families, cites = 2000, 400
	cfg := gtopdb.DefaultConfig()
	cfg.Families = families
	snap := gtopdb.Generate(cfg).Snapshot()
	g := NewGenerator(servingRegistry(snap.Schema()), snap)
	for _, shape := range servingShapes {
		if _, err := g.Cite(cq.MustParse(fmt.Sprintf(shape, families))); err != nil {
			t.Fatal(err)
		}
	}
	// A plan-cache miss asks whether a live snapshot maps the new entry;
	// nothing else does.
	fills := 0
	live := g.plans.live
	g.plans.live = func(k genKey, deps []string) bool { fills++; return live(k, deps) }

	var planSpans, planMisses int
	for i := range cites {
		q := cq.MustParse(fmt.Sprintf(servingShapes[i%len(servingShapes)], 1+i/len(servingShapes)))
		tr := trace.New("cite")
		res, err := g.CiteContext(trace.NewContext(context.Background(), tr), q, Request{})
		if err != nil {
			t.Fatal(err)
		}
		tr.Finish()
		tr.Root().Visit(func(sp *trace.Span) {
			if sp.Name() != "plan" {
				return
			}
			planSpans++
			if c, _ := sp.Attr("cache"); c != "hit" {
				planMisses++
			}
		})
		fresh, err := NewGenerator(servingRegistry(snap.Schema()), snap).Cite(q)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := resultJSON(t, res), resultJSON(t, fresh); got != want {
			t.Fatalf("%s: prepared plans cite\n%s\nfresh generator cites\n%s", q, got, want)
		}
	}
	if planSpans < cites || planMisses != 0 || fills != 0 {
		t.Errorf("%d cites opened %d plan spans, %d not a cache hit, and filled the plan cache %d times; want every plan from the cache",
			cites, planSpans, planMisses, fills)
	}
}

// resultJSON renders every part of a Result that is a function of its
// query and the snapshot content: the rewritings, each answer tuple with
// its expressions and record, the aggregate, the read-set with its
// origin, and the work counts. AtomsResolved is left out: it counts the
// atom cache's misses, which depend on what the generator cited before.
func resultJSON(t *testing.T, res *Result) string {
	t.Helper()
	type tupleJSON struct {
		Tuple, Expr, Selected string // the tuple by Tuple.Key, which shows kinds
		Record                format.Record
	}
	out := struct {
		Query      string
		Rewritings []string
		Tuples     []tupleJSON
		Expr       string
		Record     format.Record
		Stats      Stats
		Reads      []string
		Origin     uint64
	}{
		Query:  res.Query.String(),
		Expr:   res.Expr().String(),
		Record: res.Record,
		Stats:  res.Stats,
		Reads:  res.Reads,
		Origin: res.Origin,
	}
	out.Stats.AtomsResolved = 0
	for _, rw := range res.Rewritings {
		out.Rewritings = append(out.Rewritings, rw.String())
	}
	for _, tc := range res.Tuples {
		out.Tuples = append(out.Tuples, tupleJSON{tc.Tuple.Key(), tc.Expr().String(), tc.Selected().String(), tc.Record})
	}
	b, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestPlanEntriesStayInLiveNamespaces: prepared plans leave by the rule
// every other entry does. Versions 1..9 change only Family, and each is
// cited once and resolves a V1 atom, so version 1 leaves the LRU of
// retained versions. Then
// version 1's branches are evaluated again without touching it: their
// plans read Family at its content, which no live snapshot maps, so they
// are compiled but not cached. Every retained plan is the key of a live
// version: one per rewriting shape and live version over Family, and the
// citation-query plans over unchanged relations once for all versions.
func TestPlanEntriesStayInLiveNamespaces(t *testing.T) {
	g := paperGenerator(t)
	n := maxVersionGenerations + 1
	vers := commitHistory(t, g, n, "Family")
	q := cq.MustParse(paperQueryText)
	for v := 1; v <= n; v++ {
		if _, err := g.CiteContext(context.Background(), q, Request{DB: vers[v-1], Version: v}); err != nil {
			t.Fatal(err)
		}
		// The min-size policy cites V2·V3, so resolve a V1 atom too.
		if _, err := g.resolverAt(vers[v-1], nil)(citeexpr.NewAtom("V1", value.Int(11))); err != nil {
			t.Fatal(err)
		}
	}
	rewritings, prep, _, err := g.rewriteStage(q, g.Method)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.evalBranches(context.Background(), prep.plans, prep.params, vers[0]); err != nil {
		t.Fatal(err)
	}
	g.verMu.Lock()
	live := slices.Clone(g.verUse)
	g.verMu.Unlock()
	var overFamily, other int
	for k, deps := range cacheEntries(g.plans) {
		if !mapsTo(live, k, deps) {
			t.Errorf("plan %q (deps %v, origin %d) is the key of no live version", k.name, deps, k.origin)
		}
		if slices.Contains(deps, "Family") {
			overFamily++
		} else {
			other++
		}
	}
	// Two rewritings per live version; CV1's shape and the one shape of
	// the constant citation queries CV2 and CV3.
	if want := len(rewritings) * maxVersionGenerations; overFamily != want {
		t.Errorf("%d plans read Family, want %d", overFamily, want)
	}
	if other != 2 {
		t.Errorf("%d plans read no Family, want 2", other)
	}
}

// TestPinPlanKeysStayApart: a pin's plan (Answer) runs over the snapshot
// itself and a rewriting's over view instances, so the two never share
// an entry. The rewriting of a Family cite, taken as a query over the
// view predicate, has the shape and the body deps of the rewriting's
// cached plan; answered over the snapshot, it must compile a plan of its
// own and fail with the unknown-relation error, not read the view
// instance's rows through the rewriting's plan.
func TestPinPlanKeysStayApart(t *testing.T) {
	cfg := gtopdb.DefaultConfig()
	cfg.Families = 50
	snap := gtopdb.Generate(cfg).Snapshot()
	g := NewGenerator(servingRegistry(snap.Schema()), snap)
	res, err := g.Cite(cq.MustParse("Q(FName, Desc) :- Family(7, FName, Desc)"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) == 0 || len(res.Rewritings) == 0 {
		t.Fatalf("the cite found %d tuples over %d rewritings", len(res.Tuples), len(res.Rewritings))
	}
	for _, rw := range res.Rewritings {
		q := rw.AsQuery("rw")
		deps := g.reg.BodyDeps(q)
		shape := string(eval.AppendShape(nil, q))
		if _, hit, err := g.plans.get(genKey{snap.Origin(deps), shape}, deps, func() (*eval.Plan, error) {
			return nil, errors.New("not cached")
		}); !hit || err != nil {
			t.Fatalf("%s: the rewriting's plan is not cached (hit %v, %v)", q, hit, err)
		}
		tuples, hit, err := g.Answer(context.Background(), &Result{Query: q}, snap)
		if hit || !errors.Is(err, eval.ErrUnknownRelation) {
			t.Fatalf("%s over the snapshot: %d tuples, plan cache hit %v, error %v; want its own plan and %v",
				q, len(tuples), hit, err, eval.ErrUnknownRelation)
		}
	}
}
