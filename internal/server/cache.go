package server

import (
	"container/list"
	"sync"
	"sync/atomic"

	"repro/internal/fixity"
)

// cacheKey identifies one cacheable citation. Both head-targeting
// requests (version 0) and version-pinned requests (?version=v) carry
// the *configuration generation* (core.System.ConfigVersion) in the
// epoch field: SetPolicyNamed/DefineView — which change what any citation
// contains — bump it and orphan every entry at once. Commits do NOT
// change the key. Head entries instead record the system epoch they were
// computed at plus their citation's relation read-set, and survive a
// commit exactly when none of those relations changed since
// (core.System.DataFresh): that is the delta invalidation rule.
// Version-pinned entries target immutable snapshots, so they need no
// freshness check at all and survive every commit.
type cacheKey struct {
	epoch   int64 // configuration generation (head and versioned keys)
	version fixity.Version
	query   string
}

// freshFunc validates a head entry: it reports whether none of the
// entry's read-set relations changed content after the epoch the entry
// was computed at. Backed by core.System.DataFresh; nil disables
// validation (version-pinned batches and unit tests).
type freshFunc func(deps []string, since int64) bool

// cacheCall is one in-flight computation. The owner closes done exactly
// once after setting val/err; any number of coalesced waiters select on
// done (racing their request contexts). epoch is the system epoch the
// owner observed before computing — the freshness stamp its result is
// cached under.
type cacheCall struct {
	done  chan struct{}
	val   *encodedCite
	err   error
	epoch int64
}

// resultCache is a dependency-validated LRU of citation results with
// request coalescing: at most one computation per key is ever in flight,
// no matter how many concurrent requests demand it. Errors are never
// cached — a failed computation is handed to its waiters and forgotten,
// so transient failures retry.
type resultCache struct {
	mu       sync.Mutex
	capacity int
	lru      *list.List // front = most recently used; Value is *cacheEntry
	entries  map[cacheKey]*list.Element
	inflight map[cacheKey]*cacheCall

	hits      atomic.Int64 // served from the LRU
	misses    atomic.Int64 // owner claims — exactly one per computation
	coalesced atomic.Int64 // joined an in-flight computation
	evictions atomic.Int64 // LRU capacity evictions

	// Delta-invalidation accounting: per commit/ingest turnover, every
	// head entry is counted exactly once as kept (read-set disjoint from
	// the touched relations) or invalidated (evicted because a touched
	// relation was among its reads; stale entries caught at lookup or
	// insert time count here too).
	kept        atomic.Int64
	invalidated atomic.Int64
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
// written from, with its freshness evidence: the epoch the value was
// computed at and the base relations it read (encodedCite.reads).
// Version-pinned entries never consult either.
type cacheEntry struct {
	key   cacheKey
	val   *encodedCite
	epoch int64
}

// acquire resolves a key three ways:
//   - cached:      (val, true, nil, false) — an LRU hit whose read-set
//     survived every data change since it was computed.
//   - must compute: (_, false, call, true) — the caller is the owner and
//     MUST eventually invoke complete(key, call, …), or waiters hang.
//   - in flight:   (_, false, call, false) — coalesce by waiting on
//     call.done.
//
// curEpoch is the system epoch the caller observed; fresh validates head
// entries and in-flight computations against it. A cached head entry
// that fails validation is evicted and the caller becomes the owner of a
// recomputation; an in-flight computation started before a data change
// (call.epoch < curEpoch) is not coalesced onto — the caller replaces
// the registration and computes against current data, while the old
// owner's result is dropped at its own complete unless still fresh.
func (c *resultCache) acquire(k cacheKey, curEpoch int64, fresh freshFunc) (val *encodedCite, cached bool, cl *cacheCall, owner bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[k]; ok {
		e := el.Value.(*cacheEntry)
		if k.version > 0 || fresh == nil || fresh(e.val.reads, e.epoch) {
			c.lru.MoveToFront(el)
			c.hits.Add(1)
			return e.val, true, nil, false
		}
		// Stale under a delta that touched one of its reads: evict and
		// fall through to the miss path.
		c.lru.Remove(el)
		delete(c.entries, k)
		c.invalidated.Add(1)
	}
	if cl, ok := c.inflight[k]; ok && (k.version > 0 || cl.epoch >= curEpoch) {
		c.coalesced.Add(1)
		return nil, false, cl, false
	}
	cl = &cacheCall{done: make(chan struct{}), epoch: curEpoch}
	c.inflight[k] = cl
	c.misses.Add(1)
	return nil, false, cl, true
}

// complete publishes the owner's result: waiters are released, and a
// successful value is inserted into the LRU (evicting from the cold end
// past capacity) — unless a head result went stale while it was being
// computed, which fresh detects against the relations the citation
// actually read. Failed computations are not cached.
func (c *resultCache) complete(k cacheKey, cl *cacheCall, val *encodedCite, err error, fresh freshFunc) {
	c.mu.Lock()
	if c.inflight[k] == cl {
		delete(c.inflight, k)
	}
	if err == nil && (k.version > 0 || fresh == nil || fresh(val.reads, cl.epoch)) {
		if el, ok := c.entries[k]; ok {
			e := el.Value.(*cacheEntry)
			e.val, e.epoch = val, cl.epoch
			c.lru.MoveToFront(el)
		} else {
			c.entries[k] = c.lru.PushFront(&cacheEntry{key: k, val: val, epoch: cl.epoch})
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
// waiters, and re-insert. Freshness validation already guarantees
// correctness — purging only releases memory promptly after an explicit
// invalidation.
func (c *resultCache) purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lru.Init()
	c.entries = make(map[cacheKey]*list.Element)
}

// purgeTouched drops the head-targeting entries whose read-set
// intersects the touched relations — the only entries a data delta can
// invalidate — and keeps everything else warm: other head entries
// (counted kept) and version-pinned results, which are immutable. POST
// /commit and POST /ingest call this with the relations they changed; an
// empty touched set evicts nothing.
func (c *resultCache) purgeTouched(rels []string) {
	touched := make(map[string]bool, len(rels))
	for _, r := range rels {
		touched[r] = true
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var next *list.Element
	for el := c.lru.Front(); el != nil; el = next {
		next = el.Next()
		e := el.Value.(*cacheEntry)
		if e.key.version != 0 {
			continue
		}
		stale := false
		for _, d := range e.val.reads {
			if touched[d] {
				stale = true
				break
			}
		}
		if stale {
			c.lru.Remove(el)
			delete(c.entries, e.key)
			c.invalidated.Add(1)
		} else {
			c.kept.Add(1)
		}
	}
}

// len reports the number of cached entries.
func (c *resultCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}
