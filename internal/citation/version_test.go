package citation

// Tests and benchmarks of versioned (time-travel) caching: entries are
// keyed by the snapshot content they read, so versions that share a
// relation share the entries computed from it.

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/cq"
	"repro/internal/gtopdb"
	"repro/internal/schema"
	"repro/internal/storage"
	"repro/internal/trace"
	"repro/internal/value"
)

// commitHistory freezes n versions of g's head database, the first as it
// is and each later one after adding one fresh tuple to every relation in
// change (Family, Committee or FamilyIntro). vers[v-1] is version v.
func commitHistory(t testing.TB, g *Generator, n int, change ...string) []*storage.Database {
	t.Helper()
	head := g.Database()
	vers := make([]*storage.Database, 0, n)
	for v := 1; v <= n; v++ {
		if v > 1 {
			id := value.Int(int64(100 + v))
			for _, rel := range change {
				var tup storage.Tuple
				switch rel {
				case "Family":
					tup = storage.Tuple{id, value.String(fmt.Sprintf("Family %d", v)), value.String("added")}
				case "Committee":
					tup = storage.Tuple{value.Int(11), value.String(fmt.Sprintf("Member %d", v))}
				case "FamilyIntro":
					tup = storage.Tuple{id, value.String(fmt.Sprintf("Intro %d", v))}
				default:
					t.Fatalf("commitHistory: no fresh tuple for %s", rel)
				}
				if _, err := head.Relation(rel).Insert(tup); err != nil {
					t.Fatal(err)
				}
			}
		}
		vers = append(vers, head.Snapshot())
	}
	return vers
}

// resultText canonicalizes a Result for byte-identity comparison.
func resultText(t testing.TB, res *Result) string {
	t.Helper()
	rec, err := res.Record.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	out := res.Expr().String() + "\n" + string(rec)
	for _, tc := range res.Tuples {
		tr, err := tc.Record.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		out += "\n" + tc.Tuple.String() + "|" + tc.Expr().String() + "|" + tc.Selected().String() + "|" + string(tr)
	}
	return out
}

// TestVersionSweepSharesUnchangedViews: across 12 versions that change
// only Family, a view copy over FamilyIntro alone is materialized once,
// while the copies over Family are materialized once per version, and
// every version's
// citation is byte-identical to a fresh generator's. The views are the
// paper's with swapped heads, so every one is a copy the view cache
// holds.
func TestVersionSweepSharesUnchangedViews(t *testing.T) {
	g := copyingPaperGenerator(t)
	const n = 12
	vers := commitHistory(t, g, n, "Family")
	introQuery := "Q(Text) :- FamilyIntro(FID, Text)"
	misses := make(map[any]int) // view name -> materializations
	for v := 1; v <= n; v++ {
		req := Request{DB: vers[v-1]}
		for _, src := range []string{introQuery, paperQueryText} {
			tr := trace.New("cite")
			res, err := g.CiteContext(trace.NewContext(context.Background(), tr), cq.MustParse(src), req)
			if err != nil {
				t.Fatal(err)
			}
			tr.Finish()
			tr.Root().Visit(func(s *trace.Span) {
				if c, _ := s.Attr("cache"); s.Name() == "views" && c == "miss" {
					view, _ := s.Attr("view")
					misses[view]++
				}
			})
			fresh, err := NewGenerator(g.Registry(), g.Database()).CiteContext(context.Background(), cq.MustParse(src), req)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := resultText(t, res), resultText(t, fresh); got != want {
				t.Errorf("version %d, %s:\n got %s\nwant %s", v, src, got, want)
			}
		}
	}
	if misses["V3"] != 1 {
		t.Errorf("V3 (FamilyIntro only) materialized %d times over %d versions, want 1", misses["V3"], n)
	}
	if misses["V2"] != n {
		t.Errorf("V2 (Family) materialized %d times over %d versions, want %d", misses["V2"], n, n)
	}
}

// TestConcurrentVersionSweep cites 12 versions that change only Family
// from several goroutines at once, so fills and shared hits interleave
// (meaningful under -race); every answer must equal a fresh generator's
// citation of that version.
func TestConcurrentVersionSweep(t *testing.T) {
	g := paperGenerator(t)
	const n = 12
	vers := commitHistory(t, g, n, "Family")
	q := cq.MustParse(paperQueryText)
	want := make([]string, n)
	for v := 1; v <= n; v++ {
		res, err := NewGenerator(g.Registry(), g.Database()).CiteContext(context.Background(), q, Request{DB: vers[v-1]})
		if err != nil {
			t.Fatal(err)
		}
		want[v-1] = resultText(t, res)
	}
	const workers, cites = 4, 3 * n
	got := make([][]*Result, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < cites; i++ {
				v := 1 + (i*(w+1)+w)%n
				res, err := g.CiteContext(context.Background(), q, Request{DB: vers[v-1]})
				if err != nil {
					t.Error(err)
					return
				}
				got[w] = append(got[w], res)
			}
		}(w)
	}
	wg.Wait()
	for w := range got {
		for i, res := range got[w] {
			v := 1 + (i*(w+1)+w)%n
			if text := resultText(t, res); text != want[v-1] {
				t.Errorf("worker %d, version %d:\n got %s\nwant %s", w, v, text, want[v-1])
			}
		}
	}
}

// TestVersionedCiteNeedsFrozenSnapshot: a request naming a mutable
// database is refused, since its content cannot key a cache entry.
func TestVersionedCiteNeedsFrozenSnapshot(t *testing.T) {
	g := paperGenerator(t)
	if _, err := g.CiteContext(context.Background(), cq.MustParse(paperQueryText), Request{DB: g.Database()}); err == nil {
		t.Error("cite of the mutable head database accepted")
	}
}

// BenchmarkVersionSweep cites the four query shapes of the serving
// benchmark's history traffic across 32 committed versions of a
// 500-family GtoPdb instance that differ only in Family, one sweep per
// iteration over one long-lived generator, and reports the view cache's
// entries after the last sweep (view-entries). Under identity the views
// are the serving benchmark's own, identity views each read straight
// from the version's snapshot as its ascending base relation, so no view
// is ever filled and view-entries is 0. Under copy each view's first two
// head columns are swapped, so every view is a copy: each version's
// copies over Family and the copies over Target and FamilyIntro, shared
// by every version, fit the view cache's bound, so after the first sweep
// no copy refills.
func BenchmarkVersionSweep(b *testing.B) {
	b.Run("identity", func(b *testing.B) { benchmarkVersionSweep(b, servingRegistry) })
	b.Run("copy", func(b *testing.B) { benchmarkVersionSweep(b, swappedServingRegistry) })
}

// swappedHeads returns reg's views with the first two head columns of
// each swapped: the same views as a rewriting target, none of them an
// identity view, so the view cache holds a copy of every one.
func swappedHeads(reg *Registry) *Registry {
	out := NewRegistry(reg.Schema())
	for _, v := range reg.Views() {
		q := v.Query.Clone()
		q.Head[0], q.Head[1] = q.Head[1], q.Head[0]
		out.MustAdd(&View{Query: q, Citations: v.Citations, Fn: v.Fn, Static: v.Static})
	}
	return out
}

// swappedServingRegistry is servingRegistry under swappedHeads.
func swappedServingRegistry(s *schema.Schema) *Registry { return swappedHeads(servingRegistry(s)) }

// TestViewCopyIsFrozen: the view cache freezes every copy it fills, so
// plans read a copy through its columnar block and build no row index on
// it, and a second cite that probes the same column encodes nothing.
func TestViewCopyIsFrozen(t *testing.T) {
	cfg := gtopdb.DefaultConfig()
	cfg.Families = 200
	snap := gtopdb.Generate(cfg).Snapshot()
	g := NewGenerator(swappedServingRegistry(snap.Schema()), snap)
	encoded := func(fid int) uint64 {
		t.Helper()
		u := storage.ColumnarUsage()
		before := u.DictBytes + u.CodeBytes
		q := cq.MustParse(fmt.Sprintf("Q(FName, Desc) :- Family(%d, FName, Desc)", fid))
		if _, err := g.CiteContext(context.Background(), q, Request{}); err != nil {
			t.Fatal(err)
		}
		u = storage.ColumnarUsage()
		return u.DictBytes + u.CodeBytes - before
	}
	encoded(7)
	if n := encoded(9); n != 0 {
		t.Errorf("a second cite over the cached copy encoded %d bytes, want 0", n)
	}
	for _, name := range []string{"FamilyView", "FamilyAll"} {
		rel, _, err := g.materializeAt(context.Background(), snap, name)
		if err != nil {
			t.Fatal(err)
		}
		if !rel.Frozen() {
			t.Errorf("%s: the cached copy is mutable", name)
		}
		for col := range rel.Schema().Arity() {
			if rel.HasIndex(col) {
				t.Errorf("%s: the cached copy holds a row index on column %d", name, col)
			}
		}
	}
}

// familyReleases generates a GtoPdb instance of the given size and
// freezes n versions of it, the first as generated and each later one
// after adding one family. db is the head; vers[v-1] is version v.
func familyReleases(tb testing.TB, families, n int) (db *storage.Database, vers []*storage.Database) {
	tb.Helper()
	cfg := gtopdb.DefaultConfig()
	cfg.Families = families
	db = gtopdb.Generate(cfg)
	for v := 1; v <= n; v++ {
		if v > 1 {
			fid := int64(families + v)
			if err := db.Insert("Family", value.Int(fid), value.String(fmt.Sprintf("Family added in release %d", v)), value.String("added")); err != nil {
				tb.Fatal(err)
			}
		}
		vers = append(vers, db.Snapshot())
	}
	return db, vers
}

func benchmarkVersionSweep(b *testing.B, registry func(*schema.Schema) *Registry) {
	const versions, families = 32, 500
	db, snaps := familyReleases(b, families, versions)
	g := NewGenerator(registry(db.Schema()), db)
	sweep := func(i int) {
		for v := 1; v <= versions; v++ {
			for s, shape := range servingShapes {
				// Constants advance with every cite, so consecutive sweeps
				// cite different queries.
				id := 1 + (i*versions*len(servingShapes)+v*len(servingShapes)+s)%families
				q := cq.MustParse(fmt.Sprintf(shape, id))
				if _, err := g.CiteContext(context.Background(), q, Request{DB: snaps[v-1]}); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	sweep(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sweep(i + 1)
	}
	b.ReportMetric(float64(g.Counters().Views.Entries), "view-entries")
}
