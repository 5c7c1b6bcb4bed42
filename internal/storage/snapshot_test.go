package storage

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/schema"
	"repro/internal/value"
)

func snapSchema() *schema.Schema {
	s := schema.New()
	s.MustAdd(schema.MustRelation("R", []schema.Attribute{
		{Name: "A", Kind: value.KindInt},
		{Name: "B", Kind: value.KindString},
	}))
	return s
}

// TestSnapshotIsolation: mutations to the source relation after Snapshot
// must not be visible through the snapshot — inserts, deletes, and the
// compaction that insertion can trigger.
func TestSnapshotIsolation(t *testing.T) {
	r := NewRelation(snapSchema().Relation("R"))
	for i := 0; i < 10; i++ {
		r.MustInsert(value.Int(int64(i)), value.String(fmt.Sprintf("v%d", i)))
	}
	r.BuildIndex(0)

	snap := r.Snapshot()
	if !snap.Frozen() {
		t.Fatal("snapshot not frozen")
	}
	if snap.Len() != 10 {
		t.Fatalf("snapshot len %d, want 10", snap.Len())
	}

	// Mutate the source: delete half, insert new, force compaction.
	for i := 0; i < 5; i++ {
		if !r.Delete(Tuple{value.Int(int64(i)), value.String(fmt.Sprintf("v%d", i))}) {
			t.Fatalf("delete %d failed", i)
		}
	}
	for i := 100; i < 200; i++ {
		r.MustInsert(value.Int(int64(i)), value.String("new"))
	}
	r.Compact()

	if snap.Len() != 10 {
		t.Fatalf("snapshot len changed to %d after source mutation", snap.Len())
	}
	for i := 0; i < 10; i++ {
		want := Tuple{value.Int(int64(i)), value.String(fmt.Sprintf("v%d", i))}
		if !snap.Contains(want) {
			t.Errorf("snapshot lost tuple %s", want)
		}
		if got := snap.Lookup(0, value.Int(int64(i))); len(got) != 1 {
			t.Errorf("snapshot indexed lookup of %d returned %d tuples", i, len(got))
		}
	}
	if snap.Contains(Tuple{value.Int(100), value.String("new")}) {
		t.Error("snapshot sees post-snapshot insert")
	}
	if r.Len() != 105 {
		t.Fatalf("source len %d, want 105", r.Len())
	}
}

// TestSnapshotWritePanics: a frozen snapshot must reject mutation loudly.
func TestSnapshotWritePanics(t *testing.T) {
	r := NewRelation(snapSchema().Relation("R"))
	r.MustInsert(value.Int(1), value.String("x"))
	snap := r.Snapshot()
	defer func() {
		if recover() == nil {
			t.Error("insert into frozen snapshot did not panic")
		}
	}()
	snap.MustInsert(value.Int(2), value.String("y"))
}

// TestDatabaseSnapshotImmutable: the database-level snapshot rejects writes
// with an error and keeps serving its frozen contents.
func TestDatabaseSnapshotImmutable(t *testing.T) {
	db := NewDatabase(snapSchema())
	if err := db.Insert("R", value.Int(1), value.String("x")); err != nil {
		t.Fatal(err)
	}
	snap := db.Snapshot()
	if !snap.Frozen() {
		t.Fatal("snapshot not frozen")
	}
	if err := db.Insert("R", value.Int(2), value.String("y")); err != nil {
		t.Fatal(err)
	}
	if snap.Size() != 1 {
		t.Fatalf("snapshot size %d, want 1", snap.Size())
	}
	if err := snap.Insert("R", value.Int(3), value.String("z")); err == nil {
		t.Error("insert into frozen database succeeded")
	}
	if _, err := snap.Delete("R", value.Int(1), value.String("x")); err == nil {
		t.Error("delete from frozen database succeeded")
	}
	// Snapshots no longer pre-build per-column hash indexes; fast reads
	// come from the columnar block, which frozen relations build on first
	// request and keep forever.
	if blk := snap.Relation("R").ColumnarBlock(); blk == nil {
		t.Error("frozen snapshot did not columnarize on demand")
	} else if blk.Len() != 1 {
		t.Errorf("snapshot block has %d rows, want 1", blk.Len())
	}
}

// TestConcurrentReadersOneWriter hammers a live relation with concurrent
// indexed reads, scans and snapshots while a writer inserts and deletes —
// meaningful under -race.
func TestConcurrentReadersOneWriter(t *testing.T) {
	r := NewRelation(snapSchema().Relation("R"))
	for i := 0; i < 64; i++ {
		r.MustInsert(value.Int(int64(i)), value.String("seed"))
	}
	r.BuildIndex(0)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				r.Lookup(0, value.Int(int64(i%64)))
				r.Len()
				n := 0
				r.Scan(func(Tuple) bool { n++; return n < 10 })
				snap := r.Snapshot()
				snap.Lookup(0, value.Int(int64(i%64)))
			}
		}(w)
	}
	for i := 64; i < 256; i++ {
		r.MustInsert(value.Int(int64(i)), value.String("w"))
		if i%3 == 0 {
			r.Delete(Tuple{value.Int(int64(i - 64)), value.String("seed")})
		}
	}
	close(stop)
	wg.Wait()
}

// TestSnapshotReusedWhileUnchanged: Snapshot hands out the same frozen
// object, stamp included, until the source's content changes. No-op
// writes, index builds and compaction leave the content alone.
func TestSnapshotReusedWhileUnchanged(t *testing.T) {
	r := NewRelation(snapSchema().Relation("R"))
	for i := 0; i < 100; i++ {
		r.MustInsert(value.Int(int64(i)), value.String("v"))
	}
	for i := 0; i < 80; i++ {
		r.Delete(Tuple{value.Int(int64(i)), value.String("v")})
	}
	snap := r.Snapshot()
	if snap.Stamp() == 0 {
		t.Fatal("frozen snapshot has no stamp")
	}
	if r.Stamp() != 0 {
		t.Errorf("mutable relation has stamp %d", r.Stamp())
	}
	for name, op := range map[string]func(){
		"no-op insert": func() { r.MustInsert(value.Int(90), value.String("v")) },
		"EnsureIndex":  func() { r.EnsureIndex(1) },
		"Compact":      r.Compact,
	} {
		op()
		if got := r.Snapshot(); got != snap {
			t.Errorf("after %s: new snapshot (stamp %d), want the previous one (stamp %d)", name, got.Stamp(), snap.Stamp())
		}
	}
	if snap.Len() != 20 {
		t.Errorf("reused snapshot holds %d tuples, want 20", snap.Len())
	}
}

// TestSnapshotNewAfterMutation: every content mutation makes the next
// Snapshot a new frozen object with a newer stamp, and the old one keeps
// its contents.
func TestSnapshotNewAfterMutation(t *testing.T) {
	r := NewRelation(snapSchema().Relation("R"))
	r.MustInsert(value.Int(1), value.String("a"))
	r.MustInsert(value.Int(2), value.String("b"))
	ta := Tuple{value.Int(3), value.String("c")}
	for _, step := range []struct {
		name string
		op   func() error
	}{
		{"Insert", func() error { _, err := r.Insert(ta); return err }},
		{"Delete", func() error { r.Delete(ta); return nil }},
		{"InsertBatch", func() error { _, err := r.InsertBatch([]Tuple{ta}); return err }},
		{"DeleteBatch", func() error { _, err := r.DeleteBatch([]Tuple{ta}); return err }},
	} {
		prev := r.Snapshot()
		n := prev.Len()
		if err := step.op(); err != nil {
			t.Fatal(err)
		}
		next := r.Snapshot()
		if next == prev {
			t.Errorf("after %s: Snapshot returned the previous object", step.name)
			continue
		}
		if next.Stamp() <= prev.Stamp() {
			t.Errorf("after %s: stamp %d not newer than %d", step.name, next.Stamp(), prev.Stamp())
		}
		if prev.Len() != n || next.Len() == n {
			t.Errorf("after %s: previous snapshot %d tuples (want %d), new %d", step.name, prev.Len(), n, next.Len())
		}
	}
}

// TestConcurrentSnapshotInsert races Snapshot against Insert (meaningful
// under -race): every snapshot is frozen, holds between the initial and
// the final tuple count, and two snapshots with equal stamps are the same
// object.
func TestConcurrentSnapshotInsert(t *testing.T) {
	r := NewRelation(snapSchema().Relation("R"))
	r.MustInsert(value.Int(0), value.String("seed"))
	const writes = 200
	var wg sync.WaitGroup
	snaps := make([][]*Relation, 4)
	for w := range snaps {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < writes; i++ {
				snaps[w] = append(snaps[w], r.Snapshot())
			}
		}(w)
	}
	for i := 1; i <= writes; i++ {
		r.MustInsert(value.Int(int64(i)), value.String("w"))
	}
	wg.Wait()
	byStamp := make(map[uint64]*Relation)
	for _, ss := range snaps {
		for _, s := range ss {
			if !s.Frozen() || s.Len() < 1 || s.Len() > writes+1 {
				t.Fatalf("snapshot frozen=%v len=%d", s.Frozen(), s.Len())
			}
			if prev, ok := byStamp[s.Stamp()]; ok && prev != s {
				t.Fatalf("stamp %d names two snapshots", s.Stamp())
			}
			byStamp[s.Stamp()] = s
		}
	}
}

// TestSnapshotSharesAppendOnlyRows: a snapshot holds a prefix of its
// source's rows, with no probe table of its own until it is asked for
// membership. Appends after it never show through; a delete after it
// copies the source's rows first, so it never reaches the snapshot,
// whether it is the first delete since the snapshot or a later one.
func TestSnapshotSharesAppendOnlyRows(t *testing.T) {
	row := func(i int) Tuple { return Tuple{value.Int(int64(i)), value.String(fmt.Sprintf("v%d", i))} }
	r := NewRelation(snapSchema().Relation("R"))
	for i := 0; i < 50; i++ {
		r.MustInsert(row(i).Clone()...)
	}
	s1 := r.Snapshot()
	if s1.rows.table != nil || s1.member.Load() != nil {
		t.Fatal("a new snapshot holds a probe table")
	}
	for i := 50; i < 80; i++ {
		r.MustInsert(row(i).Clone()...)
	}
	s2 := r.Snapshot()
	del, ins := s2.Diff(s1)
	if del != nil || len(ins) != 30 || !ins[0].Equal(row(50)) || !ins[29].Equal(row(79)) {
		t.Fatalf("after appends: Diff = %d deletes, %d inserts; want rows 50..79 inserted", len(del), len(ins))
	}
	if s1.member.Load() != nil {
		t.Error("the diff of an append-only history built a membership table")
	}
	for i := 1; i < 80; i += 2 {
		if !r.Delete(row(i)) {
			t.Fatalf("delete of row %d failed", i)
		}
	}
	r.MustInsert(row(1000).Clone()...)
	check := func(name string, s *Relation, n int) {
		t.Helper()
		if s.Len() != n {
			t.Errorf("%s: %d tuples, want %d", name, s.Len(), n)
		}
		for i := 0; i < n; i++ {
			if !s.Contains(row(i)) {
				t.Errorf("%s lost row %d", name, i)
			}
		}
		if s.Contains(row(1000)) || s.Contains(row(n)) {
			t.Errorf("%s shows a later insert", name)
		}
		got := 0
		s.Scan(func(Tuple) bool { got++; return true })
		if got != n || s.ColumnarBlock().Len() != n {
			t.Errorf("%s scans %d rows and blocks %d, want %d", name, got, s.ColumnarBlock().Len(), n)
		}
	}
	check("first snapshot", s1, 50)
	check("second snapshot", s2, 80)
	if s1.member.Load() == nil {
		t.Error("Contains built no membership table on the snapshot")
	}
	if r.Len() != 41 || r.Contains(row(1)) || !r.Contains(row(1000)) {
		t.Errorf("source: %d tuples (want 41), holds row 1: %v, row 1000: %v", r.Len(), r.Contains(row(1)), r.Contains(row(1000)))
	}
	s3 := r.Snapshot()
	if del, ins := s3.Diff(s2); len(del) != 40 || len(ins) != 1 || !ins[0].Equal(row(1000)) {
		t.Errorf("after deletes: Diff = %d deletes, %v; want the 40 odd rows deleted, row 1000 inserted", len(del), ins)
	}
	if del, ins := s3.Diff(nil); del != nil || len(ins) != 41 {
		t.Errorf("Diff(nil) = %d deletes, %d inserts; want every live row inserted", len(del), len(ins))
	}
}

// TestDiffReplaysRowOrder: replaying Diff's batches on a relation that
// holds the older snapshot's rows in its row order rebuilds the newer
// one's live rows in its row order, for every pair of snapshots of a
// random history of inserts, deletes, re-inserts and compactions over
// floats that Tuple.Compare ties (+0, -0) or cannot order (NaN). A diff
// taken across no delete deletes nothing.
func TestDiffReplaysRowOrder(t *testing.T) {
	rs := schema.MustRelation("F", []schema.Attribute{{Name: "X", Kind: value.KindFloat}, {Name: "K", Kind: value.KindInt}})
	floats := []float64{0, math.Copysign(0, -1), math.NaN(), 1.5, -2}
	keysOf := func(ts []Tuple) []string {
		var out []string
		for _, tu := range ts {
			out = append(out, tu.Key())
		}
		return out
	}
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		r := NewRelation(rs)
		snaps := []*Relation{r.Snapshot()}
		deletedBefore := []int{0} // deletes done before each snapshot
		deletes := 0
		for step := 0; step < 60; step++ {
			tu := Tuple{value.Float(floats[rng.Intn(len(floats))]), value.Int(int64(rng.Intn(4)))}
			switch k := rng.Intn(10); {
			case k < 6:
				r.MustInsert(tu...)
			case k < 9:
				if r.Delete(tu) {
					deletes++
				}
			default:
				r.Compact()
			}
			if rng.Intn(3) == 0 {
				snaps = append(snaps, r.Snapshot())
				deletedBefore = append(deletedBefore, deletes)
			}
		}
		for i, old := range snaps {
			for j := i; j < len(snaps); j++ {
				del, ins := snaps[j].Diff(old)
				rebuilt := NewRelation(rs)
				if _, err := rebuilt.InsertBatch(old.Tuples()); err != nil {
					t.Fatal(err)
				}
				if _, err := rebuilt.DeleteBatch(del); err != nil {
					t.Fatal(err)
				}
				if _, err := rebuilt.InsertBatch(ins); err != nil {
					t.Fatal(err)
				}
				if got, want := keysOf(rebuilt.Tuples()), keysOf(snaps[j].Tuples()); !slices.Equal(got, want) {
					t.Fatalf("seed %d: snapshot %d rebuilt from %d as %q, want %q (deleted %d, inserted %d)", seed, j, i, got, want, len(del), len(ins))
				}
				if deletedBefore[j] == deletedBefore[i] && del != nil {
					t.Fatalf("seed %d: diff from snapshot %d to %d deletes %d rows across no delete", seed, i, j, len(del))
				}
			}
		}
	}
}
