package citation

// Tests of the dependency machinery behind content-keyed caching: the
// registry's transitive read-set computations, Result.Reads, and the
// selectivity of a head turnover with its kept/evicted accounting.

import (
	"reflect"
	"testing"

	"repro/internal/citeexpr"
	"repro/internal/cq"
	"repro/internal/value"
)

// TestRegistryDeps pins the transitive read-set computations: a base
// relation reads itself, a view reads its body's base relations,
// citation queries are tracked separately, and a view whose body
// references another view folds that view's dependencies in.
func TestRegistryDeps(t *testing.T) {
	reg := paperRegistry(t, paperSchema(t))

	if got := reg.QueryDeps("Family"); !reflect.DeepEqual(got, []string{"Family"}) {
		t.Errorf("QueryDeps(Family) = %v, want [Family]", got)
	}
	if got := reg.QueryDeps("V1"); !reflect.DeepEqual(got, []string{"Family"}) {
		t.Errorf("QueryDeps(V1) = %v, want [Family] (citation queries excluded)", got)
	}
	if got := reg.CitationDeps("V1"); !reflect.DeepEqual(got, []string{"Committee"}) {
		t.Errorf("CitationDeps(V1) = %v, want [Committee]", got)
	}
	// V3's citation query is a constant — no base relations at all.
	if got := reg.CitationDeps("V3"); len(got) != 0 {
		t.Errorf("CitationDeps(V3) = %v, want empty (constant citation)", got)
	}

	// BodyDeps over a rewriting-shaped query: view atoms resolve through
	// the view's body, base atoms stay themselves.
	q := cq.MustParse("Q(FID, Text) :- V2(FID, FName, Desc), FamilyIntro(FID, Text)")
	if got := reg.BodyDeps(q); !reflect.DeepEqual(got, []string{"Family", "FamilyIntro"}) {
		t.Errorf("BodyDeps = %v, want [Family FamilyIntro]", got)
	}

	// Views reading views: register (white-box) a view whose body
	// references V2; its deps must fold V2's base relations in.
	v4 := &View{Query: cq.MustParse("V4(FID, Text) :- V2(FID, FName, Desc), FamilyIntro(FID, Text)")}
	reg.mu.Lock()
	reg.views = append(reg.views, v4)
	reg.byName["V4"] = v4
	reg.mu.Unlock()
	if got := reg.QueryDeps("V4"); !reflect.DeepEqual(got, []string{"Family", "FamilyIntro"}) {
		t.Errorf("QueryDeps(V4) = %v, want [Family FamilyIntro] (transitive)", got)
	}
}

// TestResultReads asserts a citation reports the union of base relations
// every rewriting transitively reads — view bodies, citation queries and
// residual base atoms alike.
func TestResultReads(t *testing.T) {
	g := paperGenerator(t)

	res, err := g.Cite(cq.MustParse(paperQueryText))
	if err != nil {
		t.Fatal(err)
	}
	// V1 contributes Family (body) + Committee (citation query); V3
	// contributes FamilyIntro; V2's citation is constant.
	want := []string{"Committee", "Family", "FamilyIntro"}
	if !reflect.DeepEqual(res.Reads, want) {
		t.Errorf("Reads = %v, want %v", res.Reads, want)
	}

	intro, err := g.Cite(cq.MustParse("Q(Text) :- FamilyIntro(FID, Text)"))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(intro.Reads, []string{"FamilyIntro"}) {
		t.Errorf("FamilyIntro query Reads = %v, want [FamilyIntro]", intro.Reads)
	}
}

// headViewCached reports whether the view cache holds a finished,
// successful materialization of the named view for the head's content.
func headViewCached(g *Generator, name string) bool {
	key := genKey{g.Head().Origin(g.reg.QueryDeps(name)), name}
	g.views.mu.Lock()
	e, ok := g.views.m[key]
	g.views.mu.Unlock()
	if !ok {
		return false
	}
	select {
	case <-e.ready:
		return e.err == nil
	default:
		return false
	}
}

// citeText canonicalizes a Result for byte-identity comparison.
func citeText(t *testing.T, g *Generator, src string) string {
	t.Helper()
	res, err := g.Cite(cq.MustParse(src))
	if err != nil {
		t.Fatal(err)
	}
	return resultText(t, res)
}

// TestHeadTurnoverSelectivity pins the generator-level delta rule:
// when a write turns the head over, exactly the view-copy and atom
// entries that transitively read a written relation leave; everything
// else survives and keeps serving citations identical to a cold
// recomputation. The views have swapped heads, so each is a copy the
// view cache holds.
func TestHeadTurnoverSelectivity(t *testing.T) {
	g := copyingPaperGenerator(t)
	db := g.Database()
	introQuery := "Q(Text) :- FamilyIntro(FID, Text)"

	paperBefore := citeText(t, g, paperQueryText)
	introBefore := citeText(t, g, introQuery)
	if !headViewCached(g, "V3") {
		t.Fatal("V3 not materialized after citing — test assumptions broken")
	}
	// The min-size policy picks CV2·CV3 (constant citations), so force a
	// Committee-reading atom entry into the cache explicitly.
	if _, err := g.resolverAt(g.Head(), nil)(citeexpr.NewAtom("V1", value.Int(11))); err != nil {
		t.Fatal(err)
	}
	base := g.Counters()

	// Committee only feeds V1's citation query: every view copy survives;
	// only atom-cache entries for V1 go.
	db.Relation("Committee").MustInsert(value.Int(12), value.String("Dan"))
	g.Head()
	c := g.Counters()
	if c.ViewsEvicted != base.ViewsEvicted {
		t.Errorf("Committee write evicted %d views, want 0", c.ViewsEvicted-base.ViewsEvicted)
	}
	if c.AtomsEvicted == base.AtomsEvicted {
		t.Error("Committee write evicted no atom entries, want V1's citations gone")
	}
	if c.ViewsKept == base.ViewsKept {
		t.Error("surviving views not counted kept")
	}
	if !headViewCached(g, "V3") {
		t.Error("V3 evicted by a Committee write it does not read")
	}
	if got := citeText(t, g, paperQueryText); got != paperBefore {
		t.Errorf("survivor-served citation diverged from original:\n got %s\nwant %s", got, paperBefore)
	}

	// Family feeds the V1/V2 bodies; V3 and the intro query survive
	// untouched.
	base = g.Counters()
	db.Relation("Family").MustInsert(value.Int(13), value.String("Galanin"), value.String("C3"))
	g.Head()
	c = g.Counters()
	if c.ViewsEvicted == base.ViewsEvicted {
		t.Error("Family write evicted no views, want Family-backed materializations gone")
	}
	if !headViewCached(g, "V3") {
		t.Error("V3 evicted by a Family write it does not read")
	}
	if headViewCached(g, "V1") || headViewCached(g, "V2") {
		t.Error("Family-backed materialization survived a Family write")
	}
	if got := citeText(t, g, introQuery); got != introBefore {
		t.Errorf("intro citation diverged after Family write:\n got %s\nwant %s", got, introBefore)
	}

	// No write, no turnover: nothing evicted and nothing counted.
	base = g.Counters()
	g.Head()
	if c := g.Counters(); c != base {
		t.Errorf("Head without a write turned the caches over: %+v, was %+v", c, base)
	}
	if !headViewCached(g, "V3") {
		t.Error("V3 evicted without a write")
	}

	// Full flush still works and counts evictions.
	base = g.Counters()
	g.InvalidateCache()
	c = g.Counters()
	if headViewCached(g, "V3") {
		t.Error("V3 survived InvalidateCache")
	}
	if c.ViewsEvicted == base.ViewsEvicted {
		t.Error("InvalidateCache counted no view evictions")
	}
	cold := NewGenerator(g.Registry(), db)
	if got, want := citeText(t, g, paperQueryText), citeText(t, cold, paperQueryText); got != want {
		t.Errorf("recomputation diverged from a cold generator:\n got %s\nwant %s", got, want)
	}
}

// TestBranchCacheInvalidation pins that a cite evaluates its rewritings
// over the data it reads, with no evaluation kept to go stale: a repeat
// cite and a cite after a write to a relation the rewritings' bodies do
// not read render as the first, a cite after a body write reflects the
// new data — byte identical to a cold generator over the same database —
// and a full flush changes nothing.
func TestBranchCacheInvalidation(t *testing.T) {
	g := paperGenerator(t)
	db := g.Database()
	before := citeText(t, g, paperQueryText)
	if got := citeText(t, g, paperQueryText); got != before {
		t.Fatalf("warm repeat diverged:\n got %s\nwant %s", got, before)
	}

	// Committee feeds only V1's citation query — the rewritings' body
	// reads (Family, FamilyIntro) are untouched.
	db.Relation("Committee").MustInsert(value.Int(12), value.String("Dan"))
	if got := citeText(t, g, paperQueryText); got != before {
		t.Errorf("citation after a Committee write diverged:\n got %s\nwant %s", got, before)
	}

	// After a body write the cite sees the new family — identical to a
	// generator with no cache history.
	db.Relation("Family").MustInsert(value.Int(13), value.String("Galanin"), value.String("C3"))
	db.Relation("FamilyIntro").MustInsert(value.Int(13), value.String("3rd"))
	after := citeText(t, g, paperQueryText)
	if after == before {
		t.Error("citation unchanged after body write")
	}
	cold := NewGenerator(paperRegistry(t, db.Schema()), db)
	if got := citeText(t, cold, paperQueryText); got != after {
		t.Errorf("recomputed citation diverged from cold generator:\n got %s\nwant %s", after, got)
	}

	// A full flush leaves the citation as it was.
	g.InvalidateCache()
	if got := citeText(t, g, paperQueryText); got != after {
		t.Errorf("post-flush citation diverged:\n got %s\nwant %s", got, after)
	}
}
