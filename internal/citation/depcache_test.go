package citation

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/citeexpr"
	"repro/internal/cq"
	"repro/internal/gtopdb"
	"repro/internal/trace"
	"repro/internal/value"
)

// TestDepCacheSingleflight: N goroutines demanding one key run its fill
// exactly once, and every caller sees the filled value.
func TestDepCacheSingleflight(t *testing.T) {
	c := newDepCache[int](4)
	const n = 16
	var fills, hits atomic.Int64
	var started, done sync.WaitGroup
	release := make(chan struct{})
	got := make([]int, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		started.Add(1)
		done.Add(1)
		go func(i int) {
			defer done.Done()
			started.Done()
			v, hit, err := c.get(genKey{1, "k"}, func() (int, error) {
				fills.Add(1)
				<-release
				return 42, nil
			})
			if hit {
				hits.Add(1)
			}
			got[i], errs[i] = v, err
		}(i)
	}
	started.Wait()
	close(release)
	done.Wait()
	if f := fills.Load(); f != 1 {
		t.Fatalf("%d fills for %d concurrent callers, want 1", f, n)
	}
	if h := hits.Load(); h != n-1 {
		t.Errorf("%d callers reported a hit, want %d", h, n-1)
	}
	for i := range got {
		if errs[i] != nil || got[i] != 42 {
			t.Errorf("caller %d: got %d, %v", i, got[i], errs[i])
		}
	}
}

// TestDepCacheFailedFillRetries: a failed fill is evicted, so the next
// get refills, and the refilled value is then served from the cache.
func TestDepCacheFailedFillRetries(t *testing.T) {
	c := newDepCache[int](4)
	k := genKey{1, "k"}
	boom := errors.New("boom")
	if _, _, err := c.get(k, func() (int, error) { return 0, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if len(c.m) != 0 {
		t.Fatal("failed fill retained")
	}
	if v, hit, err := c.get(k, func() (int, error) { return 7, nil }); hit || err != nil || v != 7 {
		t.Fatalf("refill: %d, hit %v, %v", v, hit, err)
	}
	v, hit, err := c.get(k, func() (int, error) {
		t.Error("filled again after a successful fill")
		return 0, nil
	})
	if !hit || err != nil || v != 7 {
		t.Errorf("repeat: %d, hit %v, %v", v, hit, err)
	}
}

// fillName fills c's entry of name with name itself, and reports
// whether an existing entry served it.
func fillName(c *depCache[string], name string) bool {
	_, hit, _ := c.get(genKey{1, name}, func() (string, error) { return name, nil })
	return hit
}

// queued lists the names of c's entries in queue order, oldest first,
// checking that the queue and the map hold the same entries.
func queued[V any](t *testing.T, c *depCache[V]) []string {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	var names []string
	var prev *depEntry[V]
	for e := c.oldest; e != nil; prev, e = e, e.newer {
		if e.older != prev || c.m[e.key] != e {
			t.Fatalf("queue entry %q is not linked to its neighbour or not in the map", e.key.name)
		}
		names = append(names, e.key.name)
	}
	if prev != c.newest || len(names) != len(c.m) {
		t.Fatalf("queue holds %d entries, map %d", len(names), len(c.m))
	}
	return names
}

// waitVisited blocks until some caller has looked up name in c.
func waitVisited[V any](c *depCache[V], name string) {
	for {
		c.mu.Lock()
		e := c.m[genKey{1, name}]
		visited := e != nil && e.visited
		c.mu.Unlock()
		if visited {
			return
		}
		runtime.Gosched()
	}
}

// TestDepCacheBound: a cache never holds more entries than its bound,
// and counts one eviction per fill past it.
func TestDepCacheBound(t *testing.T) {
	c := newDepCache[string](4)
	for i := range 10 {
		fillName(c, fmt.Sprint(i))
		if n := len(queued(t, c)); n != min(i+1, 4) {
			t.Fatalf("after %d fills the cache holds %d entries, want %d", i+1, n, min(i+1, 4))
		}
	}
	if st := c.stats(); st.Entries != 4 || st.Evicted != 6 {
		t.Errorf("stats %+v, want 4 entries and 6 evictions", st)
	}
}

// TestDepCacheSieveKeepsVisited: an entry hit since the hand last passed
// it survives the next pass, and the hand evicts the unvisited entries it
// meets. a and c are hit, so filling e and f evicts b and d; the hand has
// passed a and c. c is hit again, and so is e: the next fills evict f,
// then a, which no hit marked since the hand passed it, while c stays.
func TestDepCacheSieveKeepsVisited(t *testing.T) {
	c := newDepCache[string](4)
	for _, name := range []string{"a", "b", "c", "d"} {
		fillName(c, name)
	}
	for _, name := range []string{"a", "c"} {
		if !fillName(c, name) {
			t.Fatalf("%s missed before any eviction", name)
		}
	}
	fillName(c, "e")
	fillName(c, "f")
	if got := queued(t, c); !slices.Equal(got, []string{"a", "c", "e", "f"}) {
		t.Fatalf("after the first pass the cache holds %v, want [a c e f]", got)
	}
	fillName(c, "c")
	fillName(c, "e")
	fillName(c, "g")
	fillName(c, "h")
	if got := queued(t, c); !slices.Equal(got, []string{"c", "e", "g", "h"}) {
		t.Errorf("after the second pass the cache holds %v, want [c e g h]", got)
	}
	if st := c.stats(); st.Evicted != 4 {
		t.Errorf("%d evictions, want 4", st.Evicted)
	}
}

// TestDepCacheEvictedFillServesWaiters: an entry evicted while its fill
// runs still hands the value to the caller that waits on it, and is not
// cached.
func TestDepCacheEvictedFillServesWaiters(t *testing.T) {
	c := newDepCache[int](1)
	release := make(chan struct{})
	filled, waited := make(chan int), make(chan int)
	go func() {
		v, _, _ := c.get(genKey{1, "a"}, func() (int, error) { <-release; return 42, nil })
		filled <- v
	}()
	for len(queued(t, c)) == 0 {
		runtime.Gosched()
	}
	go func() {
		v, hit, _ := c.get(genKey{1, "a"}, func() (int, error) {
			t.Error("a waiter ran a fill of its own")
			return 0, nil
		})
		if !hit {
			t.Error("the waiter's lookup reported a miss")
		}
		waited <- v
	}()
	waitVisited(c, "a")
	if _, _, err := c.get(genKey{1, "b"}, func() (int, error) { return 7, nil }); err != nil {
		t.Fatal(err)
	}
	if got := queued(t, c); !slices.Equal(got, []string{"b"}) {
		t.Fatalf("the cache holds %v, want [b]: the in-flight a evicted", got)
	}
	close(release)
	if v := <-filled; v != 42 {
		t.Errorf("filler got %d, want 42", v)
	}
	if v := <-waited; v != 42 {
		t.Errorf("waiter got %d, want 42", v)
	}
	if got := queued(t, c); !slices.Equal(got, []string{"b"}) {
		t.Errorf("the cache holds %v after the evicted fill finished, want [b]", got)
	}
}

// TestDepCacheFailedFillRemovesOnlyItsEntry: a fill that fails after the
// bound evicted its entry and a later fill of the same key succeeded
// removes nothing: the later entry keeps serving.
func TestDepCacheFailedFillRemovesOnlyItsEntry(t *testing.T) {
	c := newDepCache[int](1)
	k := genKey{1, "a"}
	release := make(chan struct{})
	failed := make(chan error)
	go func() {
		_, _, err := c.get(k, func() (int, error) { <-release; return 0, errors.New("boom") })
		failed <- err
	}()
	for len(queued(t, c)) == 0 {
		runtime.Gosched()
	}
	if _, _, err := c.get(genKey{1, "b"}, func() (int, error) { return 1, nil }); err != nil {
		t.Fatal(err)
	}
	if v, hit, err := c.get(k, func() (int, error) { return 7, nil }); hit || err != nil || v != 7 {
		t.Fatalf("refill of a: %d, hit %v, %v", v, hit, err)
	}
	close(release)
	if err := <-failed; err == nil {
		t.Fatal("the first fill of a did not fail")
	}
	v, hit, err := c.get(k, func() (int, error) {
		t.Error("the refilled entry was removed by the failed fill")
		return 0, nil
	})
	if !hit || err != nil || v != 7 {
		t.Errorf("a after the failed fill: %d, hit %v, %v", v, hit, err)
	}
}

// TestDepCacheInvalidateAccounting: purging empties a cache and counts
// no eviction, since no bound was reached; later lookups miss and fill
// again, and a fill in flight across the purge still serves its caller
// without coming back into the cache.
func TestDepCacheInvalidateAccounting(t *testing.T) {
	c := newDepCache[string](4)
	for _, name := range []string{"a", "b", "c"} {
		fillName(c, name)
	}
	release := make(chan struct{})
	done := make(chan string)
	go func() {
		v, _, _ := c.get(genKey{1, "d"}, func() (string, error) { <-release; return "d", nil })
		done <- v
	}()
	for len(queued(t, c)) < 4 {
		runtime.Gosched()
	}
	c.purge()
	if st := c.stats(); st.Entries != 0 || st.Evicted != 0 {
		t.Errorf("after a purge: %+v, want no entries and no evictions", st)
	}
	close(release)
	if v := <-done; v != "d" {
		t.Errorf("the fill in flight across the purge returned %q", v)
	}
	if got := queued(t, c); len(got) != 0 {
		t.Errorf("the purged cache holds %v", got)
	}
	if fillName(c, "a") {
		t.Error("a hit after the purge")
	}
	if !fillName(c, "a") {
		t.Error("the refilled a missed")
	}
}

// cacheEntries lists the keys of a cache's entries.
func cacheEntries[V any](c *depCache[V]) []genKey {
	c.mu.Lock()
	defer c.mu.Unlock()
	return slices.Collect(maps.Keys(c.m))
}

// lookupMisses runs f under a trace and counts the spans named name that
// say cache: "miss".
func lookupMisses(name string, f func(ctx context.Context)) int {
	tr := trace.New("lookups")
	f(trace.NewContext(context.Background(), tr))
	tr.Finish()
	misses := 0
	tr.Root().Visit(func(s *trace.Span) {
		if c, _ := s.Attr("cache"); s.Name() == name && c == "miss" {
			misses++
		}
	})
	return misses
}

// TestVersionedEntriesStayInLiveNamespaces: entries are kept by the
// content they read, not by which versions were cited last. Versions
// 1..9 change only Family, and each fills its V2 and V3 copies and the
// V1(11) record. A later version misses only V2, the one view over
// Family; version 1, filled again after the eight later versions, hits
// everything. The V3 copy and the V1(11) record are one entry for all
// versions, the V2 copy one per version. The views have swapped heads,
// so each is a copy the view cache holds.
func TestVersionedEntriesStayInLiveNamespaces(t *testing.T) {
	g := copyingPaperGenerator(t)
	const n = 9
	vers := commitHistory(t, g, n, "Family")
	fill := func(v int) (viewMisses, atomMisses int) {
		t.Helper()
		var st Stats
		viewMisses = lookupMisses("views", func(ctx context.Context) {
			for _, view := range []string{"V2", "V3"} {
				if _, _, err := g.materializeAt(ctx, vers[v-1], view); err != nil {
					t.Fatal(err)
				}
			}
		})
		if _, err := g.resolverAt(vers[v-1], &st)(citeexpr.NewAtom("V1", value.Int(11))); err != nil {
			t.Fatal(err)
		}
		return viewMisses, st.AtomsResolved
	}
	if vm, am := fill(1); vm != 2 || am != 1 {
		t.Errorf("version 1: %d view and %d atom misses, want 2 and 1", vm, am)
	}
	for v := 2; v <= n; v++ {
		if vm, am := fill(v); vm != 1 || am != 0 {
			t.Errorf("version %d: %d view and %d atom misses, want 1 and 0", v, vm, am)
		}
	}
	if vm, am := fill(1); vm != 0 || am != 0 {
		t.Errorf("version 1 again: %d view and %d atom misses, want none", vm, am)
	}
	if got := len(cacheEntries(g.views)); got != n+1 {
		t.Errorf("views hold %d entries, want %d", got, n+1)
	}
	if got := len(cacheEntries(g.atoms)); got != 1 {
		t.Errorf("atoms hold %d entries, want 1", got)
	}
}

// TestHundredVersionsStayWithinBounds: citing 100 committed versions
// keeps every cache within its bound. The versions each add a family,
// and the serving views have swapped heads, so every version fills
// copies of the views over Family and the view cache passes its bound
// and evicts. Each tenth version's citations equal a fresh generator's,
// and the latest version's repeat cites miss no view.
func TestHundredVersionsStayWithinBounds(t *testing.T) {
	const families, versions = 30, 100
	db, vers := familyReleases(t, families, versions)
	reg := swappedServingRegistry(db.Schema())
	g := NewGenerator(reg, db)
	cite := func(ctx context.Context, g *Generator, v, shape int) string {
		t.Helper()
		q := cq.MustParse(fmt.Sprintf(servingShapes[shape], 1+v%families))
		res, err := g.CiteContext(ctx, q, Request{DB: vers[v-1]})
		if err != nil {
			t.Fatal(err)
		}
		return resultText(t, res)
	}
	for v := 1; v <= versions; v++ {
		for s := range servingShapes {
			got := cite(context.Background(), g, v, s)
			if v%10 == 0 {
				if want := cite(context.Background(), NewGenerator(reg, db), v, s); got != want {
					t.Errorf("version %d shape %d:\n got %s\nwant %s", v, s, got, want)
				}
			}
		}
	}
	c := g.Counters()
	for _, b := range []struct {
		name  string
		count CacheCount
		max   int
	}{{"views", c.Views, maxViewEntries}, {"atoms", c.Atoms, maxAtomEntries}, {"plans", c.Plans, maxPlanEntries}} {
		t.Logf("%s: %d entries, %d evicted", b.name, b.count.Entries, b.count.Evicted)
		if b.count.Entries > b.max {
			t.Errorf("%s hold %d entries, bound %d", b.name, b.count.Entries, b.max)
		}
	}
	if c.Views.Evicted == 0 {
		t.Error("the view cache never reached its bound; the test shows nothing")
	}
	misses := lookupMisses("views", func(ctx context.Context) {
		for s := range servingShapes {
			cite(ctx, g, versions, s)
		}
	})
	if misses != 0 {
		t.Errorf("repeat cites of version %d missed %d views", versions, misses)
	}
}

// TestFixedHeadRetentionPerDistinctQuery: at a fixed head, a distinct
// query leaves in the caches the records of its new atoms, not its
// evaluation. Over a 2,000-family GtoPdb head, distinct queries of the
// four serving shapes, each with a constant of its own, may grow the
// heap after GC by less than 0.5 KB per query, both after 2,000 queries
// and after 6,000. Keeping each query's evaluated rewritings retains
// about 2 KB per query.
func TestFixedHeadRetentionPerDistinctQuery(t *testing.T) {
	const families, maxKB = 2000, 0.5
	cfg := gtopdb.DefaultConfig()
	cfg.Families = families
	db := gtopdb.Generate(cfg)
	g := NewGenerator(servingRegistry(db.Schema()), db)
	cite := func(shape, id int) {
		q := cq.MustParse(fmt.Sprintf(servingShapes[shape], id))
		if _, err := g.CiteContext(context.Background(), q, Request{}); err != nil {
			t.Fatal(err)
		}
	}
	// The top constant warms each shape's memo entry, plans and columnar
	// blocks; the measured queries draw from the rest.
	for s := range servingShapes {
		cite(s, families)
	}
	// Two collections before each sample: the first moves sync.Pool
	// contents to the victim cache, the second frees them.
	heap := func() int64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	base, i := heap(), 0
	for _, n := range []int{2000, 6000} {
		for ; i < n; i++ {
			cite(i%len(servingShapes), 1+i/len(servingShapes))
		}
		kb := float64(heap()-base) / 1024 / float64(n)
		t.Logf("%d distinct queries: %.2f KB retained per query", n, kb)
		if kb >= maxKB {
			t.Errorf("%d distinct queries at one head retain %.2f KB per query, want < %v", n, kb, maxKB)
		}
	}
	runtime.KeepAlive(g)
}
