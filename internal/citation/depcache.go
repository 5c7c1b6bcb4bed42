package citation

import (
	"sync"
	"sync/atomic"

	"repro/internal/storage"
)

// genKey keys one cache entry: name is the view name, atom key or
// rewriting signature, origin says which data it was computed from.
// origin 0 is the mutable head generation. A versioned entry (computed
// against a committed snapshot) is keyed by the content it read, not by
// a version number: its origin is originOf the snapshot and the entry's
// deps, so every version that shares those relations maps to the same
// key and one entry serves them all.
type genKey struct {
	origin uint64
	name   string
}

// originOf returns the origin of a versioned entry that reads deps from
// the frozen snapshot db: 1 + the newest creation stamp
// (storage.Relation.Stamp) among the deps' relations, and 1 for an entry
// that reads no relation, whose value is the same at every version.
//
// Within one head's history the newest stamp identifies the whole
// dep-tuple: a dep that changed after the relation carrying that stamp
// was frozen would carry a newer stamp itself. So two snapshots map deps
// to one origin exactly when they share every dep's frozen relation —
// the origin is the version at which the entry's inputs last changed.
func originOf(db *storage.Database, deps []string) uint64 {
	var newest uint64
	for _, d := range deps {
		if r := db.Relation(d); r != nil {
			newest = max(newest, r.Stamp())
		}
	}
	return newest + 1
}

// depCache is the generator's one dependency-tracked cache type; the
// view, atom and branch caches are its instances (DESIGN.md §3, §7).
//
// Fills are singleflight: the first caller of a missing key computes the
// value, every other caller blocks on the entry's ready channel. A failed
// fill is evicted, so the next caller retries. Each entry records, at
// creation, the base relations its value transitively reads: delta
// invalidation evicts exactly the head entries (origin 0) whose deps
// intersect the touched set. Versioned entries were computed against
// immutable snapshots and leave only when no retained version maps to
// them any more.
type depCache[V any] struct {
	// live reports whether some retained version maps an entry with these
	// deps to key. A versioned fill no live version maps to returns its
	// value but caches nothing, so every retained versioned entry is the
	// key of some live version.
	live func(key genKey, deps []string) bool

	mu sync.Mutex
	m  map[genKey]*depEntry[V]

	// Per invalidation, every head entry is counted exactly once as kept
	// or evicted; exposed on the server's /metrics.
	kept, evicted atomic.Int64
}

// depEntry is one singleflight slot: ready closes once val/err are set.
type depEntry[V any] struct {
	ready chan struct{}
	val   V
	err   error
	deps  []string
}

func newDepCache[V any](live func(key genKey, deps []string) bool) *depCache[V] {
	return &depCache[V]{live: live, m: make(map[genKey]*depEntry[V])}
}

// get returns the value cached under key, and whether an existing entry
// served it. On a miss it records deps() with the new entry and runs fill
// exactly once; concurrent callers of the same key wait for that fill.
// deps runs under the cache lock (the entry must carry its deps before
// any invalidation can see it), so it must not call back into the cache.
func (c *depCache[V]) get(key genKey, deps func() []string, fill func() (V, error)) (V, bool, error) {
	c.mu.Lock()
	if e, ok := c.m[key]; ok {
		c.mu.Unlock()
		<-e.ready
		return e.val, true, e.err
	}
	d := deps()
	if key.origin > 0 && !c.live(key, d) {
		c.mu.Unlock()
		v, err := fill()
		return v, false, err
	}
	e := &depEntry[V]{ready: make(chan struct{}), deps: d}
	c.m[key] = e
	c.mu.Unlock()

	e.val, e.err = fill()
	if e.err != nil {
		c.mu.Lock()
		if c.m[key] == e {
			delete(c.m, key)
		}
		c.mu.Unlock()
	}
	close(e.ready)
	return e.val, false, e.err
}

// invalidate evicts the head entries whose deps hit reports as touched
// and counts every head entry once as kept or evicted. Versioned entries
// are not visited.
func (c *depCache[V]) invalidate(hit func(deps []string) bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for k, e := range c.m {
		if k.origin != 0 {
			continue
		}
		if hit(e.deps) {
			delete(c.m, k)
			c.evicted.Add(1)
		} else {
			c.kept.Add(1)
		}
	}
}

// drop deletes every entry match selects, outside the kept/evicted
// accounting. In-flight fills of a dropped entry finish for the callers
// already holding it; later demand refills.
func (c *depCache[V]) drop(match func(k genKey, deps []string) bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for k, e := range c.m {
		if match(k, e.deps) {
			delete(c.m, k)
		}
	}
}

// sweeper is what the generator does to all of its caches at once,
// whatever their value type.
type sweeper interface {
	invalidate(hit func(deps []string) bool)
	drop(match func(k genKey, deps []string) bool)
}
