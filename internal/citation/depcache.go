package citation

import (
	"cmp"
	"sync"
)

// genKey keys one cache entry: name is the view name, atom key or plan
// shape, and origin is the origin of the snapshot content the entry read
// (storage.Database.Origin of its deps). Every snapshot — the head's or a
// committed version's — that gives the deps the same origin holds the
// same content for them, so one entry serves them all and never goes
// stale.
type genKey struct {
	origin uint64
	name   string
}

// The entry bounds of the generator's caches, each sized from measured
// working sets with room to spare: 5,000 distinct cites of the serving
// shapes over 2,000 families hold 1,252 atoms, and a sweep of 32
// versions through views that are all copies (BenchmarkVersionSweep/copy)
// holds 66 view copies and 195 plans. The rewriting memo holds one entry
// per query shape and view-set generation, far fewer than its bound in
// serving workloads.
const (
	maxViewEntries = 128
	maxAtomEntries = 4096
	maxPlanEntries = 1024
	maxMemoEntries = 1024
)

// depCache is the generator's one cache type; the view, atom and plan
// caches and the rewriting memo are its instances (DESIGN.md §3, §7).
// Entries are keyed by the content they read, so none goes stale, and
// the cache is bounded by count: a fill past bound entries evicts one by
// SIEVE (Zhang et al., NSDI 2024). Entries queue in insertion order and
// a hit only marks its entry visited; a hand moving from the oldest
// entry toward the newest unmarks each visited entry it passes and
// evicts the first unvisited one.
//
// Fills are singleflight: the first caller of a missing key computes the
// value, every other caller blocks on the entry's ready channel. An entry
// evicted while its fill runs still hands the value to its waiters. A
// failed fill removes its entry if the cache still holds that entry, so
// the next caller retries.
type depCache[V any] struct {
	bound int

	mu sync.Mutex
	m  map[genKey]*depEntry[V]
	// The queue runs from oldest to newest through the newer links; hand
	// is the next entry an eviction examines, nil for the oldest.
	oldest, newest, hand *depEntry[V]
	evicted              int64 // entries evicted at the bound
}

// depEntry is one singleflight slot, ready closing once val/err are set,
// and its place in the queue, guarded by the cache's mu.
type depEntry[V any] struct {
	ready chan struct{}
	val   V
	err   error

	key          genKey
	visited      bool
	older, newer *depEntry[V]
}

func newDepCache[V any](bound int) *depCache[V] {
	return &depCache[V]{bound: bound, m: make(map[genKey]*depEntry[V])}
}

// get returns the value cached under key, and whether an existing entry
// served it. On a miss it runs fill exactly once; concurrent callers of
// the same key wait for that fill.
func (c *depCache[V]) get(key genKey, fill func() (V, error)) (V, bool, error) {
	c.mu.Lock()
	if e, ok := c.m[key]; ok {
		e.visited = true
		c.mu.Unlock()
		<-e.ready
		return e.val, true, e.err
	}
	if len(c.m) >= c.bound {
		c.evict()
	}
	e := &depEntry[V]{ready: make(chan struct{}), key: key, older: c.newest}
	if c.newest != nil {
		c.newest.newer = e
	} else {
		c.oldest = e
	}
	c.newest = e
	c.m[key] = e
	c.mu.Unlock()

	e.val, e.err = fill()
	if e.err != nil {
		c.mu.Lock()
		if c.m[key] == e {
			c.remove(e)
		}
		c.mu.Unlock()
	}
	close(e.ready)
	return e.val, false, e.err
}

// evict removes the entry SIEVE selects. Called with mu held on a
// non-empty cache.
func (c *depCache[V]) evict() {
	h := cmp.Or(c.hand, c.oldest)
	for h.visited {
		h.visited = false
		h = cmp.Or(h.newer, c.oldest)
	}
	c.hand = h
	c.remove(h)
	c.evicted++
}

// remove unlinks e, which the cache holds, and moves the hand past it.
// Called with mu held.
func (c *depCache[V]) remove(e *depEntry[V]) {
	delete(c.m, e.key)
	if c.hand == e {
		c.hand = e.newer
	}
	if e.older != nil {
		e.older.newer = e.newer
	} else {
		c.oldest = e.newer
	}
	if e.newer != nil {
		e.newer.older = e.older
	} else {
		c.newest = e.older
	}
	e.older, e.newer = nil, nil
}

// purge empties the cache. In-flight fills finish for the callers
// already holding their entries.
func (c *depCache[V]) purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	clear(c.m)
	c.oldest, c.newest, c.hand = nil, nil, nil
}

// stats reports the entries held and the evictions at the bound so far.
func (c *depCache[V]) stats() CacheCount {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheCount{Entries: len(c.m), Evicted: c.evicted}
}
