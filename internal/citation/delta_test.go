package citation

// Tests of the dependency machinery behind content-keyed caching: the
// registry's transitive read-set computations, Result.Reads, and which
// lookups a head turnover makes miss.

import (
	"reflect"
	"testing"

	"repro/internal/citeexpr"
	"repro/internal/cq"
	"repro/internal/storage"
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

// viewCachedAt reports whether the view cache holds a finished,
// successful materialization of the named view for db's content.
func viewCachedAt(g *Generator, db *storage.Database, name string) bool {
	key := genKey{db.Origin(g.reg.QueryDeps(name)), name}
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

// headViewCached is viewCachedAt for the head's content.
func headViewCached(g *Generator, name string) bool { return viewCachedAt(g, g.Head(), name) }

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
// lookups that transitively read a written relation miss at the new
// head; everything else hits the entries an earlier head filled and
// keeps serving citations identical to a cold recomputation. A turnover
// drops no entry: the first head's copies still serve its snapshot. The
// views have swapped heads, so each is a copy the view cache holds.
func TestHeadTurnoverSelectivity(t *testing.T) {
	g := copyingPaperGenerator(t)
	db := g.Database()
	introQuery := "Q(Text) :- FamilyIntro(FID, Text)"
	// resolved reports whether resolving V1(11), whose citation query
	// reads Committee, at the head ran a fill.
	resolved := func() bool {
		t.Helper()
		var st Stats
		if _, err := g.resolverAt(g.Head(), &st)(citeexpr.NewAtom("V1", value.Int(11))); err != nil {
			t.Fatal(err)
		}
		return st.AtomsResolved == 1
	}
	views := []string{"V1", "V2", "V3"}

	paperBefore := citeText(t, g, paperQueryText)
	introBefore := citeText(t, g, introQuery)
	for _, v := range views {
		if !headViewCached(g, v) {
			t.Fatalf("%s not materialized after citing — test assumptions broken", v)
		}
	}
	// The min-size policy picks CV2·CV3 (constant citations), so resolve
	// a Committee-reading atom explicitly.
	if !resolved() {
		t.Fatal("V1(11) resolved without a fill from an empty atom cache")
	}
	first := g.Head()

	// Committee only feeds V1's citation query: every view copy serves
	// the new head; only V1's atoms resolve again.
	db.Relation("Committee").MustInsert(value.Int(12), value.String("Dan"))
	if g.Head() == first {
		t.Fatal("a Committee write did not turn the head over")
	}
	for _, v := range views {
		if !headViewCached(g, v) {
			t.Errorf("%s missed after a Committee write it does not read", v)
		}
	}
	if !resolved() {
		t.Error("V1(11) hit after a Committee write, want it resolved over the new Committee")
	}
	if got := citeText(t, g, paperQueryText); got != paperBefore {
		t.Errorf("citation served from the surviving entries diverged from the original:\n got %s\nwant %s", got, paperBefore)
	}

	// Family feeds the V1/V2 bodies; V3, the V1(11) record and the intro
	// query still hit.
	db.Relation("Family").MustInsert(value.Int(13), value.String("Galanin"), value.String("C3"))
	if !headViewCached(g, "V3") {
		t.Error("V3 missed after a Family write it does not read")
	}
	if headViewCached(g, "V1") || headViewCached(g, "V2") {
		t.Error("a Family-backed copy hit after a Family write")
	}
	if resolved() {
		t.Error("V1(11) resolved again after a Family write it does not read")
	}
	if got := citeText(t, g, introQuery); got != introBefore {
		t.Errorf("intro citation diverged after Family write:\n got %s\nwant %s", got, introBefore)
	}

	// No write, no turnover: the head's snapshot is reused.
	if head := g.Head(); g.Head() != head {
		t.Error("Head without a write took a new snapshot")
	}
	// No turnover dropped the first head's entries.
	for _, v := range views {
		if !viewCachedAt(g, first, v) {
			t.Errorf("%s no longer serves the first head's snapshot", v)
		}
	}

	// A full flush empties every cache and counts no eviction.
	g.InvalidateCache()
	if c := g.Counters(); c != (CacheCounters{}) {
		t.Errorf("after InvalidateCache: %+v, want no entries and no evictions", c)
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
