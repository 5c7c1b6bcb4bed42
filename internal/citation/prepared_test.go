package citation

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"weak"

	"repro/internal/citeexpr"
	"repro/internal/cq"
	"repro/internal/eval"
	"repro/internal/format"
	"repro/internal/gtopdb"
	"repro/internal/storage"
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
	// A plan-cache fill adds an entry, or evicts one at the bound.
	before := g.plans.stats()

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
	after := g.plans.stats()
	fills := after.Entries - before.Entries + int(after.Evicted-before.Evicted)
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

// TestPlanEntriesStayInLiveNamespaces: prepared plans stay by the rule
// every other entry does, by the content they read. Versions 1..9 change
// only Family, and each is cited once and resolves a V1 atom. Then
// version 1's branches are evaluated again, and every plan lookup hits:
// no later version dropped its plans. The cache holds one plan per
// rewriting shape and version over Family, and the citation-query plans
// over unchanged relations once for all versions.
func TestPlanEntriesStayInLiveNamespaces(t *testing.T) {
	g := paperGenerator(t)
	const n = 9
	vers := commitHistory(t, g, n, "Family")
	q := cq.MustParse(paperQueryText)
	for v := 1; v <= n; v++ {
		if _, err := g.CiteContext(context.Background(), q, Request{DB: vers[v-1]}); err != nil {
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
	misses := lookupMisses("plan", func(ctx context.Context) {
		if _, err := g.evalBranches(ctx, prep.plans, prep.params, vers[0]); err != nil {
			t.Fatal(err)
		}
	})
	if misses != 0 {
		t.Errorf("version 1's branches missed %d plans after %d later versions", misses, n-1)
	}
	// Two rewritings per version; CV1's shape and the one shape of the
	// constant citation queries CV2 and CV3.
	if got, want := len(cacheEntries(g.plans)), len(rewritings)*n+2; got != want {
		t.Errorf("the plan cache holds %d entries, want %d", got, want)
	}
}

// TestCachedPlanPinsNoSnapshot: a cached plan binds its relations per
// run, so it keeps no snapshot alive. A cite of a committed snapshot
// fills the plan cache; once the snapshot is dropped and the head has
// moved past its Family, a collection frees that Family relation, while
// the plans stay cached.
func TestCachedPlanPinsNoSnapshot(t *testing.T) {
	g := paperGenerator(t)
	db := g.Database()
	q := cq.MustParse(paperQueryText)
	family, plans := func() (weak.Pointer[storage.Relation], int) {
		snap := db.Snapshot()
		if _, err := g.CiteContext(context.Background(), q, Request{DB: snap}); err != nil {
			t.Fatal(err)
		}
		return weak.Make(snap.Relation("Family")), g.Counters().Plans.Entries
	}()
	if plans == 0 {
		t.Fatal("the cite cached no plan")
	}
	db.Relation("Family").MustInsert(value.Int(13), value.String("Galanin"), value.String("C3"))
	db.Snapshot() // the head's Family stops reusing the cited one
	runtime.GC()
	runtime.GC()
	if family.Value() != nil {
		t.Error("the dropped snapshot's Family is still reachable")
	}
	if got := g.Counters().Plans.Entries; got != plans {
		t.Errorf("the plan cache holds %d entries after the collection, want %d", got, plans)
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
		if _, hit, err := g.plans.get(genKey{snap.Origin(deps), shape}, func() (*eval.Plan, error) {
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
