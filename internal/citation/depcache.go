package citation

import (
	"sync"
	"sync/atomic"
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

// depCache is the generator's one dependency-tracked cache type; the
// view, atom and plan caches are its instances (DESIGN.md §3, §7).
//
// Fills are singleflight: the first caller of a missing key computes the
// value, every other caller blocks on the entry's ready channel. A failed
// fill is evicted, so the next caller retries. Each entry records, at
// creation, the base relations its value transitively reads; an entry
// leaves when no live snapshot (the head's or a retained version's) maps
// its deps to its key any more.
type depCache[V any] struct {
	// live reports whether some live snapshot maps an entry with these
	// deps to key. A fill no live snapshot maps returns its value but
	// caches nothing, so every retained entry is the key of some live
	// snapshot.
	live func(key genKey, deps []string) bool

	mu sync.Mutex
	m  map[genKey]*depEntry[V]

	// Per head turnover, every entry the old head mapped is counted
	// exactly once as kept or evicted; exposed on the server's /metrics.
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
// served it. On a miss it records deps with the new entry and runs fill
// exactly once; concurrent callers of the same key wait for that fill.
func (c *depCache[V]) get(key genKey, deps []string, fill func() (V, error)) (V, bool, error) {
	c.mu.Lock()
	if e, ok := c.m[key]; ok {
		c.mu.Unlock()
		<-e.ready
		return e.val, true, e.err
	}
	if !c.live(key, deps) {
		c.mu.Unlock()
		v, err := fill()
		return v, false, err
	}
	e := &depEntry[V]{ready: make(chan struct{}), deps: deps}
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

// drop deletes every entry stale selects, and counts every entry counted
// selects once: as evicted when it is dropped, else as kept. In-flight
// fills of a dropped entry finish for the callers already holding it;
// later demand refills.
func (c *depCache[V]) drop(stale, counted func(k genKey, deps []string) bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for k, e := range c.m {
		gone := stale(k, e.deps)
		if gone {
			delete(c.m, k)
		}
		switch {
		case !counted(k, e.deps):
		case gone:
			c.evicted.Add(1)
		default:
			c.kept.Add(1)
		}
	}
}

// sweeper is what the generator does to all of its caches at once,
// whatever their value type.
type sweeper interface {
	drop(stale, counted func(k genKey, deps []string) bool)
}
