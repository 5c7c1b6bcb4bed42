package storage

import (
	"fmt"
	"runtime"
	"slices"
	"testing"
	"weak"

	"repro/internal/value"
)

// readBlocks returns n distinct frozen relations, each a snapshot of one
// source after one more insert, with their blocks read in order.
func readBlocks(n int) []*Relation {
	r := NewRelation(snapSchema().Relation("R"))
	out := make([]*Relation, n)
	for i := range out {
		r.MustInsert(value.Int(int64(i)), value.String("x"))
		out[i] = r.Snapshot()
		out[i].ColumnarBlock()
	}
	return out
}

// holding counts the relations of rels that hold a block.
func holding(rels []*Relation) int {
	n := 0
	for _, r := range rels {
		if r.colBlk.Load() != nil {
			n++
		}
	}
	return n
}

// TestBlockSetBound: reading the blocks of twice maxBlocks distinct
// snapshots, all kept live, leaves at most maxBlocks of them holding a
// block, and the set evicts the rest.
func TestBlockSetBound(t *testing.T) {
	before := ColumnarUsage()
	rels := readBlocks(2 * maxBlocks)
	after := ColumnarUsage()
	if n := holding(rels); n > maxBlocks || n == 0 {
		t.Errorf("%d of %d relations hold a block, want 1 to %d", n, len(rels), maxBlocks)
	}
	if after.BlocksHeld > maxBlocks {
		t.Errorf("the block set holds %d relations, want at most %d", after.BlocksHeld, maxBlocks)
	}
	if got := after.BlocksBuilt - before.BlocksBuilt; got != 2*maxBlocks {
		t.Errorf("%d blocks built, want %d", got, 2*maxBlocks)
	}
	if got := after.BlocksEvicted - before.BlocksEvicted; got < maxBlocks {
		t.Errorf("%d blocks evicted, want at least %d", got, maxBlocks)
	}
}

// TestBlockSetKeepsVisited: a relation whose block is read between
// admissions keeps it however many other relations pass through the set,
// while a relation read once is evicted within two turns of the hand.
func TestBlockSetKeepsVisited(t *testing.T) {
	hot, cold := readBlocks(1)[0], readBlocks(1)[0]
	blk := hot.ColumnarBlock()
	r := NewRelation(snapSchema().Relation("R"))
	for i := range 4 * maxBlocks {
		r.MustInsert(value.Int(int64(i)), value.String("x"))
		r.Snapshot().ColumnarBlock()
		if hot.ColumnarBlock() != blk {
			t.Fatalf("the block of a relation read after every admission was rebuilt after %d admissions", i+1)
		}
	}
	if cold.colBlk.Load() != nil {
		t.Errorf("a relation read once still holds its block after %d admissions", 4*maxBlocks)
	}
}

// TestRebuiltBlockMatches: an evicted relation's next read builds its
// block again from the same rows, and the rebuilt block equals the first
// column by column: rows, dictionary, codes and postings. The relation
// has deletion holes, so both blocks copy its live rows.
func TestRebuiltBlockMatches(t *testing.T) {
	r := benchRelation(600)
	for i := 0; i < 600; i += 7 {
		r.Delete(Tuple{value.Int(int64(i)), value.String(fmt.Sprintf("s%d", i%16))})
	}
	snap := r.Snapshot()
	first := snap.ColumnarBlock()
	if first.Len() == len(snap.rows.tuples) {
		t.Fatalf("the snapshot has no holes: %d rows", first.Len())
	}
	for col := range snap.Schema().Arity() {
		first.Column(col)
	}
	readBlocks(2 * maxBlocks)
	if snap.colBlk.Load() != nil {
		t.Fatalf("the snapshot kept its block through %d admissions", 2*maxBlocks)
	}
	again := snap.ColumnarBlock()
	if again == first {
		t.Fatal("the evicted relation's next read returned the evicted block")
	}
	if !slices.EqualFunc(first.rows, again.rows, Tuple.Equal) {
		t.Fatalf("the rebuilt block holds %d rows, the first %d, or they differ", again.Len(), first.Len())
	}
	for col := range snap.Schema().Arity() {
		a, b := first.Column(col), again.Column(col)
		if !slices.Equal(a.vals, b.vals) {
			t.Errorf("column %d: dictionary %v, first %v", col, b.vals, a.vals)
		}
		if !slices.Equal(a.codes, b.codes) {
			t.Errorf("column %d: the rebuilt codes differ", col)
		}
		if !slices.Equal(a.postStart, b.postStart) || !slices.Equal(a.postRows, b.postRows) {
			t.Errorf("column %d: the rebuilt postings differ", col)
		}
	}
}

// TestBlockSetHoldsNoRelation: the block set holds its relations weakly.
// A snapshot dropped by every holder is collected while its slot in the
// ring still names it, and a ring holding relations strongly fails this.
func TestBlockSetHoldsNoRelation(t *testing.T) {
	wp := func() weak.Pointer[Relation] {
		snap := benchRelation(100).Snapshot()
		snap.ColumnarBlock()
		return weak.Make(snap)
	}()
	blocks.mu.Lock()
	slot := slices.Index(blocks.ring[:], wp)
	blocks.mu.Unlock()
	if slot < 0 {
		t.Fatal("the snapshot whose block was read is not in the block set")
	}
	runtime.GC()
	if wp.Value() != nil {
		t.Fatal("a snapshot no one holds is still reachable")
	}
	blocks.mu.Lock()
	occupied := blocks.ring[slot] == wp
	blocks.mu.Unlock()
	if !occupied {
		t.Fatal("the snapshot's slot was reused before the check")
	}
}
