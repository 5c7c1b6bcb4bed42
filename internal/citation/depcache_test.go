package citation

import (
	"cmp"
	"context"
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/citeexpr"
	"repro/internal/value"
)

func alwaysLive(int) bool { return true }

func depsOf(rels ...string) func() []string {
	return func() []string { return rels }
}

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
			v, hit, err := c.get(genKey{0, "k"}, depsOf("R"), func() (int, error) {
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
	k := genKey{0, "k"}
	boom := errors.New("boom")
	if _, _, err := c.get(k, depsOf("R"), func() (int, error) { return 0, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if c.filled(k) || len(c.m) != 0 {
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

// TestDepCacheInvalidateAccounting: each invalidation counts every head
// entry exactly once as kept or evicted, and never touches versioned
// entries.
func TestDepCacheInvalidateAccounting(t *testing.T) {
	c := newDepCache[string](alwaysLive)
	for _, e := range []struct {
		key  genKey
		deps []string
	}{
		{genKey{0, "a"}, []string{"R"}},
		{genKey{0, "b"}, []string{"S"}},
		{genKey{0, "c"}, []string{"R", "S"}},
		{genKey{0, "d"}, nil},
		{genKey{1, "a"}, []string{"R"}},
		{genKey{2, "c"}, []string{"R", "S"}},
	} {
		c.get(e.key, depsOf(e.deps...), func() (string, error) { return e.key.name, nil })
	}
	step := func(name string, hit func([]string) bool, wantKept, wantEvicted int64, wantKeys ...genKey) {
		t.Helper()
		kept, evicted := c.kept.Load(), c.evicted.Load()
		c.invalidate(hit)
		if dk, de := c.kept.Load()-kept, c.evicted.Load()-evicted; dk != wantKept || de != wantEvicted {
			t.Errorf("%s: kept %d evicted %d, want %d and %d", name, dk, de, wantKept, wantEvicted)
		}
		var keys []genKey
		for k := range c.m {
			keys = append(keys, k)
		}
		slices.SortFunc(keys, func(x, y genKey) int {
			return cmp.Or(cmp.Compare(x.ver, y.ver), cmp.Compare(x.name, y.name))
		})
		if !slices.Equal(keys, wantKeys) {
			t.Errorf("%s: retained %v, want %v", name, keys, wantKeys)
		}
	}
	step("touch R", func(deps []string) bool { return slices.Contains(deps, "R") }, 2, 2,
		genKey{0, "b"}, genKey{0, "d"}, genKey{1, "a"}, genKey{2, "c"})
	step("touch nothing", func([]string) bool { return false }, 2, 0,
		genKey{0, "b"}, genKey{0, "d"}, genKey{1, "a"}, genKey{2, "c"})
	step("flush", func([]string) bool { return true }, 0, 2,
		genKey{1, "a"}, genKey{2, "c"})
}

// versionsIn lists the versioned namespaces a cache holds entries for.
func versionsIn[V any](c *depCache[V]) []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	var vers []int
	for k := range c.m {
		if k.ver > 0 && !slices.Contains(vers, k.ver) {
			vers = append(vers, k.ver)
		}
	}
	return vers
}

// TestVersionedEntriesStayInLiveNamespaces checks the generator's
// invariant directly: after fills into an evicted and a live namespace,
// every retained versioned entry belongs to a namespace in verUse.
func TestVersionedEntriesStayInLiveNamespaces(t *testing.T) {
	g := paperGenerator(t)
	db := g.Database()
	for v := 1; v <= maxVersionGenerations+1; v++ {
		g.touchVersion(v)
	}
	live := maxVersionGenerations + 1
	for _, ver := range []int{1, live} {
		if _, err := g.materializeAt(context.Background(), db, ver, "V3"); err != nil {
			t.Fatal(err)
		}
		if _, err := g.resolverAt(db, ver, nil)(citeexpr.NewAtom("V1", value.Int(11))); err != nil {
			t.Fatal(err)
		}
	}
	for name, vers := range map[string][]int{
		"views": versionsIn(g.views),
		"atoms": versionsIn(g.atoms),
	} {
		if !slices.Equal(vers, []int{live}) {
			t.Errorf("%s hold versioned namespaces %v, want only [%d]", name, vers, live)
		}
	}
}
