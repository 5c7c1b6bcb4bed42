package server

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

// testCite is a cached citation whose encoded body is text.
func testCite(text string, reads ...string) *encodedCite {
	return &encodedCite{reads: reads, body: []byte(text)}
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
	c := newResultCache(8)
	k := cacheKey{epoch: 1, query: "Q(X) :- R(X)"}

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
			val, cached, cl, owner := c.acquire(k, 1, nil)
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
				c.complete(k, cl, testCite("computed"), nil, nil)
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
	if _, cached, _, _ := c.acquire(k, 1, nil); !cached {
		t.Error("completed value not cached")
	}
}

// TestCacheErrorsNotCached asserts failed computations are handed to
// their waiters but never cached, so the next acquire retries.
func TestCacheErrorsNotCached(t *testing.T) {
	c := newResultCache(8)
	k := cacheKey{epoch: 1, query: "q"}
	_, _, cl, owner := c.acquire(k, 1, nil)
	if !owner {
		t.Fatal("first acquire must own the computation")
	}
	c.complete(k, cl, nil, errors.New("transient"), nil)
	if cl.err == nil {
		t.Error("error not published to waiters")
	}
	_, cached, _, owner := c.acquire(k, 1, nil)
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
	c := newResultCache(8)
	old := cacheKey{epoch: 1, query: "q"}
	_, _, cl, _ := c.acquire(old, 1, nil)
	c.complete(old, cl, testCite("v1"), nil, nil)

	fresh := cacheKey{epoch: 2, query: "q"}
	_, cached, cl2, owner := c.acquire(fresh, 1, nil)
	if cached || !owner {
		t.Fatal("bumped configuration generation must miss")
	}
	c.complete(fresh, cl2, testCite("v2"), nil, nil)
	if val, cached, _, _ := c.acquire(fresh, 1, nil); !cached || text(val) != "v2" {
		t.Errorf("fresh config: cached=%v val=%q", cached, text(val))
	}
}

// TestCacheLRUEviction fills past capacity and asserts cold entries are
// evicted in LRU order.
func TestCacheLRUEviction(t *testing.T) {
	c := newResultCache(2)
	put := func(q, text string) {
		k := cacheKey{epoch: 1, query: q}
		_, _, cl, owner := c.acquire(k, 1, nil)
		if !owner {
			t.Fatalf("put %q: not owner", q)
		}
		c.complete(k, cl, testCite(text), nil, nil)
	}
	put("a", "A")
	put("b", "B")
	// Touch "a" so "b" is the cold entry.
	if _, cached, _, _ := c.acquire(cacheKey{epoch: 1, query: "a"}, 1, nil); !cached {
		t.Fatal("a missing before eviction")
	}
	put("c", "C")
	if _, cached, _, _ := c.acquire(cacheKey{epoch: 1, query: "b"}, 1, nil); cached {
		t.Error("cold entry b not evicted")
	}
	if got := c.evictions.Load(); got != 1 {
		t.Errorf("evictions = %d, want 1", got)
	}
	if _, cached, _, _ := c.acquire(cacheKey{epoch: 1, query: "a"}, 1, nil); !cached {
		t.Error("recently used entry a evicted")
	}
}

// TestCachePurge drops entries but leaves in-flight computations able to
// complete and publish to their waiters.
func TestCachePurge(t *testing.T) {
	c := newResultCache(8)
	done := cacheKey{epoch: 1, query: "done"}
	_, _, cl, _ := c.acquire(done, 1, nil)
	c.complete(done, cl, testCite("done"), nil, nil)

	inflight := cacheKey{epoch: 1, query: "inflight"}
	_, _, inflightCall, owner := c.acquire(inflight, 1, nil)
	if !owner {
		t.Fatal("expected to own the in-flight computation")
	}
	c.purge()
	if c.len() != 0 {
		t.Errorf("%d entries after purge", c.len())
	}
	if _, cached, _, _ := c.acquire(done, 1, nil); cached {
		t.Error("purged entry still served")
	}
	// The in-flight call still completes and publishes.
	c.complete(inflight, inflightCall, testCite("late"), nil, nil)
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
	c := newResultCache(16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k := cacheKey{epoch: int64(i % 3), query: fmt.Sprintf("q%d", i%5)}
				_, cached, cl, owner := c.acquire(k, 1, nil)
				switch {
				case cached:
				case owner:
					c.complete(k, cl, testCite(k.query), nil, nil)
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

// put inserts a completed head entry whose citation reads the given
// relations.
func put(t *testing.T, c *resultCache, k cacheKey, reads ...string) {
	t.Helper()
	_, _, cl, owner := c.acquire(k, 1, nil)
	if !owner {
		t.Fatalf("put %+v: not owner", k)
	}
	c.complete(k, cl, testCite(k.query, reads...), nil, nil)
}

// TestPurgeTouchedScopesByReads pins the delta invalidation rule at the
// cache layer: a commit's touched set evicts exactly the head entries
// whose read-set intersects it; disjoint head entries and version-pinned
// entries survive, and the kept/invalidated counters account every head
// entry once per purge.
func TestPurgeTouchedScopesByReads(t *testing.T) {
	c := newResultCache(8)
	hot := cacheKey{epoch: 1, query: "hot"}
	cold := cacheKey{epoch: 1, query: "cold"}
	pinned := cacheKey{epoch: 1, version: 3, query: "pinned"}
	put(t, c, hot, "Family", "Committee")
	put(t, c, cold, "FamilyIntro")
	put(t, c, pinned, "Family")

	c.purgeTouched([]string{"Family"})

	if _, cached, _, _ := c.acquire(hot, 1, nil); cached {
		t.Error("entry reading a touched relation survived purgeTouched")
	}
	if _, cached, _, _ := c.acquire(cold, 1, nil); !cached {
		t.Error("entry over untouched relations did not survive")
	}
	if _, cached, _, _ := c.acquire(pinned, 1, nil); !cached {
		t.Error("version-pinned entry did not survive a data delta")
	}
	if got := c.kept.Load(); got != 1 {
		t.Errorf("kept = %d, want 1 (the cold entry)", got)
	}
	if got := c.invalidated.Load(); got != 1 {
		t.Errorf("invalidated = %d, want 1 (the hot entry)", got)
	}

	// An empty touched set is a no-delta commit: nothing evicted, the
	// surviving head entry counted kept again.
	c.purgeTouched(nil)
	if _, cached, _, _ := c.acquire(cold, 1, nil); !cached {
		t.Error("empty touched set evicted an entry")
	}
	if got := c.kept.Load(); got != 2 {
		t.Errorf("kept = %d after no-op purge, want 2", got)
	}
}

// TestCacheFreshnessAtLookup asserts a head entry that went stale — its
// read-set touched after the epoch it was computed at — is evicted at
// acquire time and the caller becomes the owner of a recomputation,
// while version-pinned entries skip validation entirely.
func TestCacheFreshnessAtLookup(t *testing.T) {
	c := newResultCache(8)
	k := cacheKey{epoch: 1, query: "q"}
	_, _, cl, _ := c.acquire(k, 5, nil)
	c.complete(k, cl, testCite("v5", "Family"), nil, nil)

	// Data unchanged: served.
	aliveFresh := func(deps []string, since int64) bool { return true }
	if val, cached, _, _ := c.acquire(k, 5, aliveFresh); !cached || text(val) != "v5" {
		t.Fatalf("fresh entry not served: cached=%v val=%q", cached, text(val))
	}

	// Family changed at epoch 6 > 5: the entry is stale.
	staleFresh := func(deps []string, since int64) bool {
		for _, d := range deps {
			if d == "Family" && since < 6 {
				return false
			}
		}
		return true
	}
	_, cached, _, owner := c.acquire(k, 6, staleFresh)
	if cached || !owner {
		t.Errorf("stale entry: cached=%v owner=%v, want miss+owner", cached, owner)
	}
	if got := c.invalidated.Load(); got != 1 {
		t.Errorf("invalidated = %d, want 1", got)
	}

	// A version-pinned entry never consults fresh.
	pk := cacheKey{epoch: 1, version: 2, query: "q"}
	_, _, pcl, _ := c.acquire(pk, 5, nil)
	c.complete(pk, pcl, testCite("pinned", "Family"), nil, nil)
	if _, cached, _, _ := c.acquire(pk, 6, staleFresh); !cached {
		t.Error("version-pinned entry failed freshness it should never take")
	}
}

// TestCacheStaleInflightNotCoalesced asserts a caller at a newer epoch
// does not coalesce onto a computation started before a data change: it
// replaces the registration and owns a recomputation, and the old
// owner's stale result is dropped at complete time by the same
// freshness check.
func TestCacheStaleInflightNotCoalesced(t *testing.T) {
	c := newResultCache(8)
	k := cacheKey{epoch: 1, query: "q"}
	_, _, oldCall, owner := c.acquire(k, 5, nil)
	if !owner {
		t.Fatal("first acquire must own")
	}

	// Data changed (epoch 6): the next caller must not wait on the old
	// computation.
	_, cached, newCall, owner := c.acquire(k, 6, nil)
	if cached || !owner {
		t.Fatalf("newer-epoch caller: cached=%v owner=%v, want a fresh owner", cached, owner)
	}
	if newCall == oldCall {
		t.Fatal("newer-epoch caller coalesced onto a stale computation")
	}

	// The old owner completes late; its result fails freshness and is not
	// inserted, but its waiters still get the value.
	staleFresh := func(deps []string, since int64) bool { return since >= 6 }
	c.complete(k, oldCall, testCite("stale", "Family"), nil, staleFresh)
	if c.len() != 0 {
		t.Errorf("stale result was cached: %d entries", c.len())
	}
	if text(oldCall.val) != "stale" {
		t.Error("old owner's waiters did not receive its value")
	}

	// The new owner's result is inserted and the registration it owns is
	// still intact (the old complete must not delete the new inflight).
	c.complete(k, newCall, testCite("fresh", "Family"), nil, staleFresh)
	if val, cached, _, _ := c.acquire(k, 6, staleFresh); !cached || text(val) != "fresh" {
		t.Errorf("recomputed value not served: cached=%v val=%q", cached, text(val))
	}
	// A same-epoch caller coalesces onto in-flight work as before.
	_, _, cl3, owner := c.acquire(cacheKey{epoch: 1, query: "r"}, 6, nil)
	if !owner {
		t.Fatal("unrelated key must be owned")
	}
	_, cached, cl4, owner := c.acquire(cacheKey{epoch: 1, query: "r"}, 6, nil)
	if cached || owner || cl4 != cl3 {
		t.Errorf("same-epoch caller did not coalesce: cached=%v owner=%v", cached, owner)
	}
	c.complete(cacheKey{epoch: 1, query: "r"}, cl3, testCite("r"), nil, nil)
}
