package storage

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/schema"
	"repro/internal/value"
)

func colSchema(t *testing.T) *schema.Relation {
	t.Helper()
	return schema.MustRelation("C", []schema.Attribute{
		{Name: "id", Kind: value.KindInt},
		{Name: "tag", Kind: value.KindString},
	})
}

// TestColBlockEncoding: dictionary codes, code vectors and posting lists
// describe exactly the relation's live tuples.
func TestColBlockEncoding(t *testing.T) {
	r := NewRelation(colSchema(t))
	tags := []string{"x", "y", "x", "z", "y", "x"}
	for i, tag := range tags {
		r.MustInsert(value.Int(int64(i)), value.String(tag))
	}
	blk := r.Snapshot().ColumnarBlock()
	if blk == nil {
		t.Fatal("snapshot built no block")
	}
	if blk.Len() != len(tags) {
		t.Fatalf("block has %d rows, want %d", blk.Len(), len(tags))
	}
	if d := blk.DistinctCount(1); d != 3 {
		t.Fatalf("DistinctCount(tag) = %d, want 3", d)
	}
	if d := blk.DistinctCount(0); d != len(tags) {
		t.Fatalf("DistinctCount(id) = %d, want %d", d, len(tags))
	}
	// Every row's code decodes back to its value, and the posting list for
	// each value returns exactly the rows holding it.
	for col := 0; col < 2; col++ {
		counts := make(map[value.Value]int)
		for i := 0; i < blk.Len(); i++ {
			row := blk.Row(uint32(i))
			code, ok := blk.Code(col, row[col])
			if !ok {
				t.Fatalf("col %d: value %v missing from dictionary", col, row[col])
			}
			if got := blk.CodeAt(col, uint32(i)); got != code {
				t.Fatalf("col %d row %d: CodeAt = %d, Code = %d", col, i, got, code)
			}
			counts[row[col]]++
		}
		for v, n := range counts {
			code, _ := blk.Code(col, v)
			post := blk.Postings(col, code)
			if len(post) != n {
				t.Fatalf("col %d: postings(%v) has %d rows, want %d", col, v, len(post), n)
			}
			for _, ri := range post {
				if blk.Row(ri)[col] != v {
					t.Fatalf("col %d: posting row %d holds %v, want %v", col, ri, blk.Row(ri)[col], v)
				}
			}
		}
	}
	// Absent values miss the dictionary.
	if _, ok := blk.Code(1, value.String("absent")); ok {
		t.Fatal("absent value found in dictionary")
	}
}

// TestColumnarOnlyFrozen: a mutable relation is read through its row
// indexes and never has a block, however often it is asked. A snapshot
// builds its block on first request and keeps it whatever its source
// writes, and the snapshot taken after a write gets a block of its own
// over the new contents.
func TestColumnarOnlyFrozen(t *testing.T) {
	r := NewRelation(colSchema(t))
	r.MustInsert(value.Int(1), value.String("a"))
	r.MustInsert(value.Int(2), value.String("b"))
	for i := 0; i < 4; i++ {
		if blk := r.ColumnarBlock(); blk != nil {
			t.Fatalf("request %d built a block for a mutable relation", i+1)
		}
	}

	snap := r.Snapshot()
	blk := snap.ColumnarBlock()
	if blk == nil {
		t.Fatal("frozen snapshot did not build on first request")
	}
	if again := snap.ColumnarBlock(); again != blk {
		t.Fatal("frozen snapshot did not keep its block")
	}
	if r.ColumnarBlock() != nil {
		t.Fatal("the source gained a block from its snapshot")
	}
	// The source keeps writing; the snapshot's block is unaffected.
	r.MustInsert(value.Int(3), value.String("c"))
	r.Delete(Tuple{value.Int(1), value.String("a")})
	if again := snap.ColumnarBlock(); again != blk || again.Len() != 2 {
		t.Fatalf("snapshot block disturbed by source writes (%p vs %p, %d rows)", again, blk, again.Len())
	}

	next := r.Snapshot()
	nblk := next.ColumnarBlock()
	if next == snap || nblk == nil || nblk == blk {
		t.Fatalf("the snapshot after a write shares the old block (snapshot reused: %v, block %p vs %p)", next == snap, nblk, blk)
	}
	var got []int64
	for _, tu := range nblk.rows {
		got = append(got, tu[0].IntVal())
	}
	if !slices.Equal(got, []int64{2, 3}) {
		t.Fatalf("new snapshot's block holds ids %v, want [2 3]", got)
	}
}

// TestDistinctCountBatchInvalidation: the planner's distinct-count memo
// must move with batch mutations exactly as with single-tuple ones — a
// stale count would silently skew every subsequent plan's atom order.
func TestDistinctCountBatchInvalidation(t *testing.T) {
	r := NewRelation(colSchema(t))
	if _, err := r.InsertBatch([]Tuple{
		{value.Int(1), value.String("a")},
		{value.Int(2), value.String("a")},
	}); err != nil {
		t.Fatal(err)
	}
	if n := r.DistinctCount(1); n != 1 {
		t.Fatalf("DistinctCount(tag) = %d, want 1", n)
	}
	if _, err := r.InsertBatch([]Tuple{
		{value.Int(3), value.String("b")},
		{value.Int(4), value.String("c")},
	}); err != nil {
		t.Fatal(err)
	}
	if n := r.DistinctCount(1); n != 3 {
		t.Fatalf("DistinctCount(tag) after InsertBatch = %d, want 3", n)
	}
	if _, err := r.DeleteBatch([]Tuple{
		{value.Int(3), value.String("b")},
		{value.Int(4), value.String("c")},
	}); err != nil {
		t.Fatal(err)
	}
	if n := r.DistinctCount(1); n != 1 {
		t.Fatalf("DistinctCount(tag) after DeleteBatch = %d, want 1", n)
	}
	// A no-op batch (all duplicates) must not disturb the memo, nor make
	// the next snapshot a new one.
	snap := r.Snapshot()
	if _, err := r.InsertBatch([]Tuple{{value.Int(1), value.String("a")}}); err != nil {
		t.Fatal(err)
	}
	if n := r.DistinctCount(1); n != 1 {
		t.Fatalf("DistinctCount(tag) after a no-op batch = %d, want 1", n)
	}
	if r.Snapshot() != snap {
		t.Fatal("no-op batch changed the snapshot")
	}
	// A snapshot answers from its block's dictionary.
	if n := snap.DistinctCount(1); n != 1 || snap.ColumnarBlock() == nil {
		t.Fatalf("snapshot DistinctCount(tag) = %d (block %p), want 1 from a block", n, snap.ColumnarBlock())
	}
}

// TestColumnarUsageCounters: building a block, and reading a block
// column, move the process-wide counters exposed on /metrics.
func TestColumnarUsageCounters(t *testing.T) {
	before := ColumnarUsage()
	r := NewRelation(colSchema(t))
	for i := 0; i < 8; i++ {
		r.MustInsert(value.Int(int64(i)), value.String(fmt.Sprintf("t%d", i%3)))
	}
	snap := r.Snapshot()
	if snap.ColumnarBlock() == nil {
		t.Fatal("snapshot has no block")
	}
	// A block encodes a column on its first read, so a bare build moves
	// only the block counters.
	if built := ColumnarUsage(); built.DictBytes != before.DictBytes || built.CodeBytes != before.CodeBytes {
		t.Errorf("a bare build moved the byte counters: dict %d->%d, code %d->%d",
			before.DictBytes, built.DictBytes, before.CodeBytes, built.CodeBytes)
	}
	snap.ColumnarBlock().DistinctCount(1)
	after := ColumnarUsage()
	if after.BlocksBuilt <= before.BlocksBuilt {
		t.Error("BlocksBuilt did not advance")
	}
	if after.DictBytes <= before.DictBytes || after.CodeBytes <= before.CodeBytes {
		t.Errorf("byte counters did not advance: dict %d->%d, code %d->%d",
			before.DictBytes, after.DictBytes, before.CodeBytes, after.CodeBytes)
	}
}

// TestBlockColumnsEncodeOnFirstUse: a block encodes a column only when a
// reader first asks for it, and once, however many readers ask at once.
func TestBlockColumnsEncodeOnFirstUse(t *testing.T) {
	encoded := func(blk *ColBlock) []bool {
		out := make([]bool, len(blk.cols))
		for col := range blk.cols {
			out[col] = blk.cols[col].Load() != nil
		}
		return out
	}
	before := ColumnarUsage()
	frozen := benchRelation(1600).Snapshot()
	blk := frozen.ColumnarBlock()
	if blk == nil {
		t.Fatal("frozen snapshot built no block")
	}
	if &blk.rows[0] != &frozen.rows.tuples[0] {
		t.Error("the block copied the rows of a frozen relation without holes")
	}
	// A full scan reads rows, never codes.
	if n := blk.Len(); n != 1600 {
		t.Fatalf("block holds %d rows, want 1600", n)
	}
	for i := 0; i < blk.Len(); i++ {
		blk.Row(uint32(i))
	}
	if got := encoded(blk); slices.Contains(got, true) {
		t.Fatalf("build and full scan encoded columns %v, want none", got)
	}
	if u := ColumnarUsage(); u.DictBytes != before.DictBytes || u.CodeBytes != before.CodeBytes {
		t.Fatal("build and full scan moved the byte counters")
	}

	// A probe encodes exactly the column it probes.
	code, ok := blk.Code(1, value.String("s3"))
	if !ok {
		t.Fatal("s3 missing from the tag dictionary")
	}
	if n := len(blk.Postings(1, code)); n != 100 {
		t.Fatalf("probe found %d rows, want 100", n)
	}
	if got := encoded(blk); !slices.Equal(got, []bool{false, true}) {
		t.Fatalf("after a tag probe, encoded columns %v, want [false true]", got)
	}

	// Concurrent first readers of one column encode it once.
	blk = benchRelation(1600).Snapshot().ColumnarBlock()
	mark := ColumnarUsage()
	const readers = 8
	cols := make([]*Column, readers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range cols {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			cols[i] = blk.Column(0)
		}()
	}
	close(start)
	wg.Wait()
	for i, c := range cols {
		if c != cols[0] {
			t.Fatalf("reader %d got a different encoding of column 0", i)
		}
	}
	c := cols[0]
	wantDict := c.footprint()
	wantCode := 4 * uint64(len(c.codes)+len(c.postRows)+len(c.postStart))
	u := ColumnarUsage()
	if d, k := u.DictBytes-mark.DictBytes, u.CodeBytes-mark.CodeBytes; d != wantDict || k != wantCode {
		t.Fatalf("%d concurrent readers moved the byte counters by dict %d, code %d; want one encoding's %d, %d",
			readers, d, k, wantDict, wantCode)
	}
}

// TestColumnarConcurrentBuild takes snapshots of a relation while a
// writer inserts and deletes, and builds each snapshot's block from
// several goroutines at once — meaningful under -race. Every snapshot
// builds one block, and the block holds exactly that snapshot's rows.
func TestColumnarConcurrentBuild(t *testing.T) {
	r := NewRelation(colSchema(t))
	for i := 0; i < 100; i++ {
		r.MustInsert(value.Int(int64(i)), value.String("seed"))
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 100; i < 300; i++ {
			r.MustInsert(value.Int(int64(i)), value.String("w"))
			if i%3 == 0 {
				r.Delete(Tuple{value.Int(int64(i - 100)), value.String("seed")})
			}
		}
	}()
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		snap := r.Snapshot()
		blks := make([]*ColBlock, 4)
		var wg sync.WaitGroup
		for i := range blks {
			wg.Add(1)
			go func() {
				defer wg.Done()
				blks[i] = snap.ColumnarBlock()
			}()
		}
		wg.Wait()
		for _, b := range blks {
			if b != blks[0] {
				t.Fatal("one snapshot built two blocks")
			}
		}
		if got, want := blks[0].rows, snap.Tuples(); !slices.EqualFunc(got, want, Tuple.Equal) {
			t.Fatalf("block holds %d rows, snapshot %d, or they differ", len(got), len(want))
		}
	}
	if blk := r.Snapshot().ColumnarBlock(); blk.Len() != r.Len() {
		t.Fatalf("final block has %d rows, want %d", blk.Len(), r.Len())
	}
}
