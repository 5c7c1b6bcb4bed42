package citation

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/citeexpr"
	"repro/internal/cq"
	"repro/internal/gtopdb"
	"repro/internal/value"
)

func alwaysLive(genKey, []string) bool { return true }

func depsOf(rels ...string) []string { return rels }

// TestDepCacheSingleflight: N goroutines demanding one key run its fill
// exactly once, and every caller sees the filled value.
func TestDepCacheSingleflight(t *testing.T) {
	c := newDepCache[int](alwaysLive)
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
			v, hit, err := c.get(genKey{1, "k"}, depsOf("R"), func() (int, error) {
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
	c := newDepCache[int](alwaysLive)
	k := genKey{1, "k"}
	boom := errors.New("boom")
	if _, _, err := c.get(k, depsOf("R"), func() (int, error) { return 0, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if len(c.m) != 0 {
		t.Fatal("failed fill retained")
	}
	if v, hit, err := c.get(k, depsOf("R"), func() (int, error) { return 7, nil }); hit || err != nil || v != 7 {
		t.Fatalf("refill: %d, hit %v, %v", v, hit, err)
	}
	v, hit, err := c.get(k, depsOf("R"), func() (int, error) {
		t.Error("filled again after a successful fill")
		return 0, nil
	})
	if !hit || err != nil || v != 7 {
		t.Errorf("repeat: %d, hit %v, %v", v, hit, err)
	}
}

// TestDepCacheInvalidateAccounting: a drop deletes exactly the entries
// its stale test selects, and counts each entry its counted test selects
// once — as evicted when dropped, else as kept. Origin 1 plays the old
// head here, whose entries a head turnover counts; the other entries
// leave or stay without a count.
func TestDepCacheInvalidateAccounting(t *testing.T) {
	c := newDepCache[string](alwaysLive)
	for _, e := range []struct {
		key  genKey
		deps []string
	}{
		{genKey{1, "a"}, []string{"R"}},
		{genKey{1, "b"}, []string{"S"}},
		{genKey{1, "c"}, []string{"R", "S"}},
		{genKey{1, "d"}, nil},
		{genKey{2, "a"}, []string{"R"}},
		{genKey{3, "c"}, []string{"R", "S"}},
	} {
		c.get(e.key, depsOf(e.deps...), func() (string, error) { return e.key.name, nil })
	}
	counted := func(k genKey, _ []string) bool { return k.origin == 1 }
	step := func(name string, stale func(genKey, []string) bool, wantKept, wantEvicted int64, wantKeys ...genKey) {
		t.Helper()
		kept, evicted := c.kept.Load(), c.evicted.Load()
		c.drop(stale, counted)
		if dk, de := c.kept.Load()-kept, c.evicted.Load()-evicted; dk != wantKept || de != wantEvicted {
			t.Errorf("%s: kept %d evicted %d, want %d and %d", name, dk, de, wantKept, wantEvicted)
		}
		var keys []genKey
		for k := range c.m {
			keys = append(keys, k)
		}
		slices.SortFunc(keys, func(x, y genKey) int {
			return cmp.Or(cmp.Compare(x.origin, y.origin), cmp.Compare(x.name, y.name))
		})
		if !slices.Equal(keys, wantKeys) {
			t.Errorf("%s: retained %v, want %v", name, keys, wantKeys)
		}
	}
	step("drop the head's R readers", func(k genKey, deps []string) bool { return k.origin == 1 && slices.Contains(deps, "R") }, 2, 2,
		genKey{1, "b"}, genKey{1, "d"}, genKey{2, "a"}, genKey{3, "c"})
	step("drop the others", func(k genKey, _ []string) bool { return k.origin != 1 }, 2, 0,
		genKey{1, "b"}, genKey{1, "d"})
	step("flush", func(genKey, []string) bool { return true }, 0, 2)
}

// cacheEntries lists the keys and deps of a cache's entries.
func cacheEntries[V any](c *depCache[V]) map[genKey][]string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[genKey][]string)
	for k, e := range c.m {
		out[k] = e.deps
	}
	return out
}

// TestVersionedEntriesStayInLiveNamespaces checks the generator's
// retention invariant directly: every retained versioned entry is the
// key of some live version. Versions 1..9 change only Family. Version 1
// fills its caches while live, then leaves the LRU, then fills again
// late. Its view copies and atoms over unchanged relations stay, because
// live versions map to the same keys; its Family copy goes with it, and
// the late fill of that copy is not cached. The views have swapped heads,
// so each is a copy the view cache holds.
func TestVersionedEntriesStayInLiveNamespaces(t *testing.T) {
	g := copyingPaperGenerator(t)
	n := maxVersionGenerations + 1
	vers := commitHistory(t, g, n, "Family")
	fill := func(v int) {
		t.Helper()
		for _, view := range []string{"V2", "V3"} {
			if _, _, err := g.materializeAt(context.Background(), vers[v-1], view); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := g.resolverAt(vers[v-1], nil)(citeexpr.NewAtom("V1", value.Int(11))); err != nil {
			t.Fatal(err)
		}
	}
	g.touchVersion(1, vers[0])
	fill(1)
	for v := 2; v <= n; v++ {
		g.touchVersion(v, vers[v-1])
	}
	fill(1)
	fill(n)
	g.verMu.Lock()
	live := slices.Clone(g.verUse)
	g.verMu.Unlock()
	for name, entries := range map[string]map[genKey][]string{
		"views": cacheEntries(g.views),
		"atoms": cacheEntries(g.atoms),
	} {
		for k, deps := range entries {
			if !mapsTo(live, k, deps) {
				t.Errorf("%s: entry %v (deps %v) is the key of no live version", name, k, deps)
			}
		}
	}
	// V2 at version n, V3 shared by all versions; one shared V1(11) record.
	if got := len(cacheEntries(g.views)); got != 2 {
		t.Errorf("views hold %d versioned entries, want 2", got)
	}
	if got := len(cacheEntries(g.atoms)); got != 1 {
		t.Errorf("atoms hold %d versioned entries, want 1", got)
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
