package eval

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/cq"
	"repro/internal/gtopdb"
	"repro/internal/schema"
	"repro/internal/storage"
	"repro/internal/value"
)

// floodBlocks reads the blocks of n fresh frozen relations, each a
// snapshot of one source after one more insert. Every admission to the
// storage block set moves its hand at least one slot, and a relation not
// read since the hand last passed it is evicted when the hand comes
// round again, so a flood of more than twice the set's bound evicts every
// block not read meanwhile.
func floodBlocks(n int) {
	r := storage.NewRelation(schema.MustRelation("Flood", []schema.Attribute{{Name: "K", Kind: value.KindInt}}))
	for i := range n {
		r.MustInsert(value.Int(int64(i)))
		r.Snapshot().ColumnarBlock()
	}
}

// TestPreparedPlanSurvivesBlockEviction: a prepared plan answers the same
// before and after every block it reads was evicted from the block set
// and rebuilt, and both answers equal the row path's.
func TestPreparedPlanSurvivesBlockEviction(t *testing.T) {
	cfg := gtopdb.DefaultConfig()
	cfg.Families = 60
	snap := gtopdb.Generate(cfg).Snapshot()
	for _, query := range []string{
		"Q(FName, Text) :- Family(%[1]d, FName, Desc), FamilyIntro(%[1]d, Text)",
		"Q(FName, TName) :- Target(%[1]d, F, TName, Type), Family(F, FName, Desc)",
	} {
		p, err := Compile(snap, cq.MustParse(fmt.Sprintf(query, 1)))
		if err != nil {
			t.Fatal(err)
		}
		answers := func() (keys [][]string, counts []int) {
			for _, k := range []int{1, 2, 7, 30, 9999} {
				args := Args(nil, cq.MustParse(fmt.Sprintf(query, k)))
				keys = append(keys, tupleKeys(p.Eval(snap, args)))
				counts = append(counts, p.CountBindings(snap, args))
			}
			return keys, counts
		}
		var want [][]string
		var wantCounts []int
		withColumnar(false, func() { want, wantCounts = answers() })
		if len(want[0]) == 0 {
			t.Fatalf("%s: no answer for the first constant", query)
		}
		check := func(when string) {
			t.Helper()
			got, counts := answers()
			if !slices.EqualFunc(got, want, slices.Equal) || !slices.Equal(counts, wantCounts) {
				t.Errorf("%s, %s: %q with %v bindings, the row path %q with %v", query, when, got, counts, want, wantCounts)
			}
		}
		check("before the eviction")
		floodBlocks(1024)
		built := storage.ColumnarUsage().BlocksBuilt
		check("after the eviction")
		if n := storage.ColumnarUsage().BlocksBuilt - built; n != 2 {
			t.Errorf("%s: the runs after the flood built %d blocks, want 2: its two relations' blocks, evicted", query, n)
		}
	}
}

// TestWalksRaceBlockEviction: walks run while other goroutines force the
// blocks they read out of the block set: the walkers themselves, reading
// more versions than the set holds, and two goroutines reading fresh
// blocks. A walk keeps reading the block it bound, a later walk builds
// it again, and every answer equals the row path's. Run it under -race.
func TestWalksRaceBlockEviction(t *testing.T) {
	cfg := gtopdb.DefaultConfig()
	cfg.Families = 20
	db := gtopdb.Generate(cfg)
	const nVersions = 200
	versions := make([]*storage.Database, nVersions)
	for v := range versions {
		fid := value.Int(int64(1000 + v))
		if err := db.Insert("Family", fid, value.String(fmt.Sprintf("Family %d", v)), value.String("d")); err != nil {
			t.Fatal(err)
		}
		if err := db.Insert("FamilyIntro", fid, value.String(fmt.Sprintf("Intro %d", v))); err != nil {
			t.Fatal(err)
		}
		versions[v] = db.Snapshot()
	}
	const query = "Q(FName, Text) :- Family(%[1]d, FName, Desc), FamilyIntro(%[1]d, Text)"
	args := func(v int) []value.Value {
		return Args(nil, cq.MustParse(fmt.Sprintf(query, 1000+v/2)))
	}
	p, err := Compile(versions[0], cq.MustParse(fmt.Sprintf(query, 1)))
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]string, nVersions)
	withColumnar(false, func() {
		for v, snap := range versions {
			want[v] = tupleKeys(p.Eval(snap, args(v)))
		}
	})
	if len(want[nVersions-1]) != 1 {
		t.Fatalf("the last version answers %q, want one tuple", want[nVersions-1])
	}

	before := storage.ColumnarUsage()
	var flooded atomic.Uint64
	stop := make(chan struct{})
	var evictors, walkers sync.WaitGroup
	for range 2 {
		evictors.Add(1)
		go func() {
			defer evictors.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				floodBlocks(16)
				flooded.Add(16)
			}
		}()
	}
	for w := range 4 {
		walkers.Add(1)
		go func() {
			defer walkers.Done()
			for i := range nVersions {
				v := (7*i + 53*w) % nVersions
				if got := tupleKeys(p.Eval(versions[v], args(v))); !slices.Equal(got, want[v]) {
					t.Errorf("walker %d, version %d: %q, the row path %q", w, v, got, want[v])
					return
				}
			}
		}()
	}
	walkers.Wait()
	close(stop)
	evictors.Wait()

	after := storage.ColumnarUsage()
	if after.BlocksEvicted == before.BlocksEvicted {
		t.Error("no block was evicted while the walks ran")
	}
	// Each version holds its own Family and FamilyIntro, so the walks read
	// 2*nVersions relations; building more blocks than that rebuilt some.
	if built := after.BlocksBuilt - before.BlocksBuilt - flooded.Load(); built <= 2*nVersions {
		t.Errorf("the walks built %d blocks for %d relations, want rebuilds of evicted blocks too", built, 2*nVersions)
	}
}
