package server

import (
	"container/list"
	"sync"
	"sync/atomic"

	"repro/internal/fixity"
	"repro/internal/storage"
)

// cacheKey identifies one cacheable citation: the configuration
// generation (core.System.ConfigVersion), which SetPolicyNamed and
// DefineView bump to orphan every entry at once, the requested version
// (0 for the head) and the query. Data changes do not change the key:
// an entry records the origin of the content its citation read, and a
// lookup serves it exactly when its snapshot gives the entry's read-set
// that origin (acquire). A version-pinned lookup always does, since it
// names one immutable snapshot.
type cacheKey struct {
	config  int64
	version fixity.Version
	query   string
}

// cacheCall is one in-flight computation. The owner closes done exactly
// once after setting val/err; any number of coalesced waiters select on
// done (racing their request contexts). snap is the snapshot the owner
// observed when it claimed the computation.
type cacheCall struct {
	done chan struct{}
	val  *encodedCite
	err  error
	snap *storage.Database
}

// resultCache is an origin-validated LRU of citation results with
// request coalescing: at most one computation per key and snapshot is
// ever in flight, no matter how many concurrent requests demand it.
// Errors are never cached — a failed computation is handed to its
// waiters and forgotten, so transient failures retry.
type resultCache struct {
	mu       sync.Mutex
	capacity int
	lru      *list.List // front = most recently used; Value is *cacheEntry
	entries  map[cacheKey]*list.Element
	inflight map[cacheKey]*cacheCall

	hits        atomic.Int64 // served from the LRU
	misses      atomic.Int64 // owner claims — exactly one per computation
	coalesced   atomic.Int64 // joined an in-flight computation
	evictions   atomic.Int64 // LRU capacity evictions
	invalidated atomic.Int64 // entries a lookup found computed from older content
}

func newResultCache(capacity int) *resultCache {
	if capacity <= 0 {
		capacity = defaultCacheSize
	}
	return &resultCache{
		capacity: capacity,
		lru:      list.New(),
		entries:  make(map[cacheKey]*list.Element),
		inflight: make(map[cacheKey]*cacheCall),
	}
}

// cacheEntry is one cached citation, held as the bytes replies are
// written from, with the evidence that validates it: the base relations
// it read and the origin of their content (encodedCite.reads, .origin).
type cacheEntry struct {
	key cacheKey
	val *encodedCite
}

// acquire resolves a key, looked up from the snapshot snap, three ways:
//   - cached:      (val, true, nil, false) — an LRU hit: snap gives the
//     entry's read-set the origin it was computed at.
//   - must compute: (_, false, call, true) — the caller is the owner and
//     MUST eventually invoke complete(key, call, …), or waiters hang.
//   - in flight:   (_, false, call, false) — coalesce by waiting on
//     call.done.
//
// An entry computed from older content than snap holds is dropped and
// counted invalidated; one computed from newer content than snap (a
// computation that took a later snapshot) is left for the callers that
// see it. A caller coalesces only onto a computation whose owner observed
// the same snapshot; otherwise it replaces the registration and computes
// itself, and the old owner's result still reaches its own waiters.
func (c *resultCache) acquire(k cacheKey, snap *storage.Database) (val *encodedCite, cached bool, cl *cacheCall, owner bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[k]; ok {
		e := el.Value.(*cacheEntry)
		switch o := snap.Origin(e.val.reads); {
		case o == e.val.origin:
			c.lru.MoveToFront(el)
			c.hits.Add(1)
			return e.val, true, nil, false
		case o > e.val.origin:
			c.lru.Remove(el)
			delete(c.entries, k)
			c.invalidated.Add(1)
		}
	}
	if cl, ok := c.inflight[k]; ok && cl.snap == snap {
		c.coalesced.Add(1)
		return nil, false, cl, false
	}
	cl = &cacheCall{done: make(chan struct{}), snap: snap}
	c.inflight[k] = cl
	c.misses.Add(1)
	return nil, false, cl, true
}

// complete publishes the owner's result: waiters are released, and a
// successful value is inserted into the LRU (evicting from the cold end
// past capacity). Origins grow along the head's history, so a value
// never replaces an entry computed from newer content: a late
// completion against an older snapshot leaves it in place. Failed
// computations are not cached.
func (c *resultCache) complete(k cacheKey, cl *cacheCall, val *encodedCite, err error) {
	c.mu.Lock()
	if c.inflight[k] == cl {
		delete(c.inflight, k)
	}
	if err == nil {
		if el, ok := c.entries[k]; ok {
			e := el.Value.(*cacheEntry)
			if val.origin >= e.val.origin {
				e.val = val
			}
			c.lru.MoveToFront(el)
		} else {
			c.entries[k] = c.lru.PushFront(&cacheEntry{key: k, val: val})
			for c.lru.Len() > c.capacity {
				cold := c.lru.Back()
				c.lru.Remove(cold)
				delete(c.entries, cold.Value.(*cacheEntry).key)
				c.evictions.Add(1)
			}
		}
	}
	cl.val, cl.err = val, err
	c.mu.Unlock()
	close(cl.done)
}

// purge drops every cached entry, version-pinned results included (used
// by Server.InvalidateCache and cold-cache benchmarks). In-flight
// computations are left alone: they complete, hand their result to their
// waiters, and re-insert. Origin validation already guarantees
// correctness — purging only releases memory.
func (c *resultCache) purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lru.Init()
	c.entries = make(map[cacheKey]*list.Element)
}

// len reports the number of cached entries.
func (c *resultCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}
