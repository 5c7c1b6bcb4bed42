package citation

import (
	"sync"
	"sync/atomic"
)

// genKey namespaces one cache entry: ver is the committed version the
// entry was computed against (0 = the mutable head generation), name the
// view name, atom key or rewriting signature.
type genKey struct {
	ver  int
	name string
}

// depCache is the generator's one dependency-tracked cache type; the
// view, atom and branch caches are its instances (DESIGN.md §3, §7).
//
// Fills are singleflight: the first caller of a missing key computes the
// value, every other caller blocks on the entry's ready channel. A failed
// fill is evicted, so the next caller retries. Each entry records, at
// creation, the base relations its value transitively reads: delta
// invalidation evicts exactly the head entries (ver 0) whose deps
// intersect the touched set. Versioned entries (ver ≥ 1) were computed
// against immutable snapshots and leave only with their whole namespace.
type depCache[V any] struct {
	// live reports whether versioned namespace ver is still retained. A
	// fill into an evicted namespace returns its value but caches nothing,
	// so every retained versioned entry belongs to a live namespace.
	live func(ver int) bool

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

func newDepCache[V any](live func(ver int) bool) *depCache[V] {
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
	if key.ver > 0 && !c.live(key.ver) {
		c.mu.Unlock()
		v, err := fill()
		return v, false, err
	}
	e := &depEntry[V]{ready: make(chan struct{}), deps: deps()}
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

// filled reports whether key holds a finished, successful fill.
func (c *depCache[V]) filled(key genKey) bool {
	c.mu.Lock()
	e, ok := c.m[key]
	c.mu.Unlock()
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

// invalidate evicts the head entries whose deps hit reports as touched
// and counts every head entry once as kept or evicted. Versioned entries
// are not visited.
func (c *depCache[V]) invalidate(hit func(deps []string) bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for k, e := range c.m {
		if k.ver != 0 {
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
