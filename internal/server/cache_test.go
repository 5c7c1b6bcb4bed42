package server

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/schema"
	"repro/internal/storage"
	"repro/internal/value"
)

// testDB is a head database with the relations the cache tests read.
func testDB(t *testing.T) *storage.Database {
	t.Helper()
	s := schema.New()
	for _, name := range []string{"Family", "Committee", "FamilyIntro"} {
		s.MustAdd(schema.MustRelation(name, []schema.Attribute{{Name: "X", Kind: value.KindInt}}))
	}
	return storage.NewDatabase(s)
}

// write inserts one fresh tuple into the named relation of db.
func write(t *testing.T, db *storage.Database, rel string) {
	t.Helper()
	r := db.Relation(rel)
	if _, err := r.Insert(storage.Tuple{value.Int(int64(r.Len()))}); err != nil {
		t.Fatal(err)
	}
}

// testCite is a citation computed from snap whose encoded body is text.
func testCite(snap *storage.Database, text string, reads ...string) *encodedCite {
	return &encodedCite{reads: reads, origin: snap.Origin(reads), body: []byte(text)}
}

// text reads back testCite's text ("" for nil).
func text(e *encodedCite) string {
	if e == nil {
		return ""
	}
	return string(e.body)
}

// TestCacheCoalescingExactlyOnce pins the coalescing contract
// deterministically: N goroutines acquire the same key while the owner's
// computation is gated open only after every goroutine has registered,
// so exactly one owner exists and every other caller coalesces.
func TestCacheCoalescingExactlyOnce(t *testing.T) {
	const n = 16
	snap := testDB(t).Snapshot()
	c := newResultCache(8)
	k := cacheKey{config: 1, query: "Q(X) :- R(X)"}

	var registered sync.WaitGroup
	registered.Add(n)
	var owners, waiters int
	var mu sync.Mutex
	results := make([]*encodedCite, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			val, cached, cl, owner := c.acquire(k, snap)
			if cached {
				registered.Done()
				t.Error("hit before anything was computed")
				return
			}
			mu.Lock()
			if owner {
				owners++
			} else {
				waiters++
			}
			mu.Unlock()
			registered.Done()
			if owner {
				registered.Wait() // every caller has acquired — none can slip in post-completion
				c.complete(k, cl, testCite(snap, "computed"), nil)
			}
			<-cl.done
			val = cl.val
			results[i] = val
		}(i)
	}
	wg.Wait()

	if owners != 1 {
		t.Fatalf("%d owners, want exactly 1", owners)
	}
	if waiters != n-1 {
		t.Fatalf("%d waiters, want %d", waiters, n-1)
	}
	for i, r := range results {
		if text(r) != "computed" {
			t.Errorf("caller %d got %+v", i, r)
		}
	}
	if got := c.misses.Load(); got != 1 {
		t.Errorf("misses = %d, want 1 (one computation)", got)
	}
	if got := c.coalesced.Load(); got != n-1 {
		t.Errorf("coalesced = %d, want %d", got, n-1)
	}
	// The published value is now cached: the next acquire is a pure hit.
	if _, cached, _, _ := c.acquire(k, snap); !cached {
		t.Error("completed value not cached")
	}
}

// TestCacheErrorsNotCached asserts failed computations are handed to
// their waiters but never cached, so the next acquire retries.
func TestCacheErrorsNotCached(t *testing.T) {
	snap := testDB(t).Snapshot()
	c := newResultCache(8)
	k := cacheKey{config: 1, query: "q"}
	_, _, cl, owner := c.acquire(k, snap)
	if !owner {
		t.Fatal("first acquire must own the computation")
	}
	c.complete(k, cl, nil, errors.New("transient"))
	if cl.err == nil {
		t.Error("error not published to waiters")
	}
	_, cached, _, owner := c.acquire(k, snap)
	if cached || !owner {
		t.Errorf("error was cached: cached=%v owner=%v", cached, owner)
	}
	if c.len() != 0 {
		t.Errorf("cache holds %d entries after a failure", c.len())
	}
}

// TestCacheConfigKeying asserts entries are keyed by the configuration
// generation: the same query under a new generation misses, and the old
// entry stays addressable only under the old key until it ages out.
func TestCacheConfigKeying(t *testing.T) {
	snap := testDB(t).Snapshot()
	c := newResultCache(8)
	old := cacheKey{config: 1, query: "q"}
	_, _, cl, _ := c.acquire(old, snap)
	c.complete(old, cl, testCite(snap, "v1"), nil)

	fresh := cacheKey{config: 2, query: "q"}
	_, cached, cl2, owner := c.acquire(fresh, snap)
	if cached || !owner {
		t.Fatal("bumped configuration generation must miss")
	}
	c.complete(fresh, cl2, testCite(snap, "v2"), nil)
	if val, cached, _, _ := c.acquire(fresh, snap); !cached || text(val) != "v2" {
		t.Errorf("fresh config: cached=%v val=%q", cached, text(val))
	}
}

// TestCacheLRUEviction fills past capacity and asserts cold entries are
// evicted in LRU order.
func TestCacheLRUEviction(t *testing.T) {
	snap := testDB(t).Snapshot()
	c := newResultCache(2)
	put := func(q, text string) {
		k := cacheKey{config: 1, query: q}
		_, _, cl, owner := c.acquire(k, snap)
		if !owner {
			t.Fatalf("put %q: not owner", q)
		}
		c.complete(k, cl, testCite(snap, text), nil)
	}
	put("a", "A")
	put("b", "B")
	// Touch "a" so "b" is the cold entry.
	if _, cached, _, _ := c.acquire(cacheKey{config: 1, query: "a"}, snap); !cached {
		t.Fatal("a missing before eviction")
	}
	put("c", "C")
	if _, cached, _, _ := c.acquire(cacheKey{config: 1, query: "b"}, snap); cached {
		t.Error("cold entry b not evicted")
	}
	if got := c.evictions.Load(); got != 1 {
		t.Errorf("evictions = %d, want 1", got)
	}
	if _, cached, _, _ := c.acquire(cacheKey{config: 1, query: "a"}, snap); !cached {
		t.Error("recently used entry a evicted")
	}
}

// TestCachePurge drops entries but leaves in-flight computations able to
// complete and publish to their waiters.
func TestCachePurge(t *testing.T) {
	snap := testDB(t).Snapshot()
	c := newResultCache(8)
	done := cacheKey{config: 1, query: "done"}
	_, _, cl, _ := c.acquire(done, snap)
	c.complete(done, cl, testCite(snap, "done"), nil)

	inflight := cacheKey{config: 1, query: "inflight"}
	_, _, inflightCall, owner := c.acquire(inflight, snap)
	if !owner {
		t.Fatal("expected to own the in-flight computation")
	}
	c.purge()
	if c.len() != 0 {
		t.Errorf("%d entries after purge", c.len())
	}
	if _, cached, _, _ := c.acquire(done, snap); cached {
		t.Error("purged entry still served")
	}
	// The in-flight call still completes and publishes.
	c.complete(inflight, inflightCall, testCite(snap, "late"), nil)
	select {
	case <-inflightCall.done:
	default:
		t.Fatal("in-flight call not completed after purge")
	}
	if text(inflightCall.val) != "late" {
		t.Errorf("in-flight value %q", text(inflightCall.val))
	}
}

// TestCacheConcurrentDistinctKeys hammers the cache with overlapping
// keys under -race.
func TestCacheConcurrentDistinctKeys(t *testing.T) {
	snap := testDB(t).Snapshot()
	c := newResultCache(16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k := cacheKey{config: int64(i % 3), query: fmt.Sprintf("q%d", i%5)}
				_, cached, cl, owner := c.acquire(k, snap)
				switch {
				case cached:
				case owner:
					c.complete(k, cl, testCite(snap, k.query), nil)
				default:
					<-cl.done
				}
			}
		}(g)
	}
	wg.Wait()
	total := c.hits.Load() + c.misses.Load() + c.coalesced.Load()
	if total != 8*50 {
		t.Errorf("accounted %d acquisitions, want %d", total, 8*50)
	}
}

// put inserts the entry for k computed from snap, whose citation reads
// the given relations.
func put(t *testing.T, c *resultCache, k cacheKey, snap *storage.Database, reads ...string) {
	t.Helper()
	_, _, cl, owner := c.acquire(k, snap)
	if !owner {
		t.Fatalf("put %+v: not owner", k)
	}
	c.complete(k, cl, testCite(snap, k.query, reads...), nil)
}

// TestPurgeTouchedScopesByReads pins the delta invalidation rule at the
// cache layer: a write invalidates exactly the head entries whose
// read-set intersects the written relations, because a lookup serves an
// entry only when its snapshot gives the entry's reads the origin it was
// computed at. Disjoint head entries and version-pinned entries survive,
// and a new snapshot with no write in between invalidates nothing.
func TestPurgeTouchedScopesByReads(t *testing.T) {
	db := testDB(t)
	v1 := db.Snapshot()
	c := newResultCache(8)
	hot := cacheKey{config: 1, query: "hot"}
	cold := cacheKey{config: 1, query: "cold"}
	pinned := cacheKey{config: 1, version: 1, query: "pinned"}
	put(t, c, hot, v1, "Family", "Committee")
	put(t, c, cold, v1, "FamilyIntro")
	put(t, c, pinned, v1, "Family")

	// A snapshot taken with no write in between is a no-delta commit:
	// every entry is served and nothing is counted invalidated.
	same := db.Snapshot()
	for _, k := range []cacheKey{hot, cold} {
		if _, cached, _, _ := c.acquire(k, same); !cached {
			t.Errorf("%s: entry dropped with no write", k.query)
		}
	}
	if got := c.invalidated.Load(); got != 0 {
		t.Errorf("invalidated = %d with no write, want 0", got)
	}

	write(t, db, "Family")
	head := db.Snapshot()
	if _, cached, _, owner := c.acquire(hot, head); cached || !owner {
		t.Errorf("entry reading a written relation: cached=%v owner=%v, want miss+owner", cached, owner)
	}
	if val, cached, _, _ := c.acquire(cold, head); !cached || text(val) != "cold" {
		t.Errorf("entry over unwritten relations: cached=%v val=%q", cached, text(val))
	}
	if _, cached, _, _ := c.acquire(pinned, v1); !cached {
		t.Error("version-pinned entry did not survive a data delta")
	}
	if got := c.invalidated.Load(); got != 1 {
		t.Errorf("invalidated = %d, want 1 (the hot entry)", got)
	}
}

// TestCacheFreshnessAtLookup asserts a head entry that went stale — its
// read-set written after the snapshot it was computed from — is evicted
// at acquire time and the caller becomes the owner of a recomputation,
// while a version-pinned entry is served from its own snapshot however
// far the head has moved.
func TestCacheFreshnessAtLookup(t *testing.T) {
	db := testDB(t)
	v5 := db.Snapshot()
	c := newResultCache(8)
	k := cacheKey{config: 1, query: "q"}
	put(t, c, k, v5, "Family")

	// Data unchanged: served.
	if val, cached, _, _ := c.acquire(k, v5); !cached || text(val) != "q" {
		t.Fatalf("fresh entry not served: cached=%v val=%q", cached, text(val))
	}

	// Family changed after v5: the entry is stale.
	write(t, db, "Family")
	v6 := db.Snapshot()
	_, cached, cl, owner := c.acquire(k, v6)
	if cached || !owner {
		t.Errorf("stale entry: cached=%v owner=%v, want miss+owner", cached, owner)
	}
	if got := c.invalidated.Load(); got != 1 {
		t.Errorf("invalidated = %d, want 1", got)
	}
	c.complete(k, cl, nil, errors.New("abandoned"))

	// A version-pinned entry computed from v5 is served from v5 after
	// the head moved on.
	pk := cacheKey{config: 1, version: 2, query: "pinned"}
	put(t, c, pk, v5, "Family")
	write(t, db, "Family")
	if _, cached, _, _ := c.acquire(pk, v5); !cached {
		t.Error("version-pinned entry not served from its own snapshot")
	}
	if got := c.invalidated.Load(); got != 1 {
		t.Errorf("invalidated = %d after the pinned lookup, want 1", got)
	}
}

// TestCacheStaleInflightNotCoalesced asserts a caller reading a newer
// snapshot does not coalesce onto a computation started before a write:
// it replaces the registration and owns a recomputation. The old owner's
// late result still reaches its own waiters but does not replace the
// entry computed from newer content, which a caller of the old snapshot
// is not served either.
func TestCacheStaleInflightNotCoalesced(t *testing.T) {
	db := testDB(t)
	old := db.Snapshot()
	c := newResultCache(8)
	k := cacheKey{config: 1, query: "q"}
	_, _, oldCall, owner := c.acquire(k, old)
	if !owner {
		t.Fatal("first acquire must own")
	}

	write(t, db, "Family")
	cur := db.Snapshot()
	_, cached, newCall, owner := c.acquire(k, cur)
	if cached || !owner {
		t.Fatalf("caller of the new snapshot: cached=%v owner=%v, want a fresh owner", cached, owner)
	}
	if newCall == oldCall {
		t.Fatal("caller of the new snapshot coalesced onto a stale computation")
	}
	// A caller of the same snapshot coalesces onto the new registration.
	if _, cached, cl, owner := c.acquire(k, cur); cached || owner || cl != newCall {
		t.Errorf("same-snapshot caller did not coalesce: cached=%v owner=%v", cached, owner)
	}

	c.complete(k, newCall, testCite(cur, "fresh", "Family"), nil)
	// The old owner completes late, from older content.
	c.complete(k, oldCall, testCite(old, "stale", "Family"), nil)
	if text(oldCall.val) != "stale" {
		t.Error("old owner's waiters did not receive its value")
	}
	if val, cached, _, _ := c.acquire(k, cur); !cached || text(val) != "fresh" {
		t.Errorf("late, older completion replaced the newer entry: cached=%v val=%q", cached, text(val))
	}
	// A caller of the old snapshot is not served the newer entry, and the
	// entry stays for the callers that read its content.
	_, cached, cl, owner := c.acquire(k, old)
	if cached || !owner {
		t.Errorf("caller of the old snapshot: cached=%v owner=%v, want miss+owner", cached, owner)
	}
	c.complete(k, cl, nil, errors.New("abandoned"))
	if _, cached, _, _ := c.acquire(k, cur); !cached {
		t.Error("newer entry dropped by a lookup from an older snapshot")
	}
	if got := c.invalidated.Load(); got != 0 {
		t.Errorf("invalidated = %d, want 0", got)
	}
}
