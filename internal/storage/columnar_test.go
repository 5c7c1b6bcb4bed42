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
	blk := r.EnsureColumnar()
	if blk == nil {
		t.Fatal("EnsureColumnar returned nil")
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

// TestColumnarInvalidation: every content mutation — single-tuple and
// batch — drops the block; a block rebuilt afterwards sees the new
// contents. Deletion holes are excluded from the dense rows.
func TestColumnarInvalidation(t *testing.T) {
	r := NewRelation(colSchema(t))
	r.MustInsert(value.Int(1), value.String("a"))
	r.MustInsert(value.Int(2), value.String("b"))

	mutate := []struct {
		label string
		fn    func()
		rows  int
	}{
		{"Insert", func() { r.MustInsert(value.Int(3), value.String("c")) }, 3},
		{"Delete", func() { r.Delete(Tuple{value.Int(3), value.String("c")}) }, 2},
		{"InsertBatch", func() {
			if _, err := r.InsertBatch([]Tuple{
				{value.Int(4), value.String("d")},
				{value.Int(5), value.String("e")},
			}); err != nil {
				t.Fatal(err)
			}
		}, 4},
		{"DeleteBatch", func() {
			if _, err := r.DeleteBatch([]Tuple{{value.Int(4), value.String("d")}}); err != nil {
				t.Fatal(err)
			}
		}, 3},
	}
	for _, m := range mutate {
		before := r.EnsureColumnar()
		if before == nil {
			t.Fatalf("%s: EnsureColumnar returned nil before mutation", m.label)
		}
		m.fn()
		if got := r.ColumnarBlock(); got == before {
			t.Fatalf("%s: stale block served after mutation", m.label)
		}
		after := r.EnsureColumnar()
		if after == nil || after == before {
			t.Fatalf("%s: block not rebuilt (got %p, stale %p)", m.label, after, before)
		}
		if after.Len() != m.rows {
			t.Fatalf("%s: rebuilt block has %d rows, want %d", m.label, after.Len(), m.rows)
		}
	}
}

// TestColumnarDemandThreshold: mutable relations earn a block only after
// repeated requests with no intervening mutation; frozen snapshots build
// on first request and keep the block forever.
func TestColumnarDemandThreshold(t *testing.T) {
	r := NewRelation(colSchema(t))
	r.MustInsert(value.Int(1), value.String("a"))

	if blk := r.ColumnarBlock(); blk != nil {
		t.Fatal("first request built a block for a mutable relation")
	}
	if blk := r.ColumnarBlock(); blk == nil {
		t.Fatalf("request %d did not build a block", columnarDemandThreshold)
	}
	// A mutation restarts the demand count.
	r.MustInsert(value.Int(2), value.String("b"))
	if blk := r.ColumnarBlock(); blk != nil {
		t.Fatal("first request after a mutation built a block")
	}

	snap := r.Snapshot()
	blk := snap.ColumnarBlock()
	if blk == nil {
		t.Fatal("frozen snapshot did not build on first request")
	}
	if again := snap.ColumnarBlock(); again != blk {
		t.Fatal("frozen snapshot did not keep its block")
	}
	// The source keeps mutating; the snapshot's block is unaffected.
	r.MustInsert(value.Int(3), value.String("c"))
	if again := snap.ColumnarBlock(); again != blk || again.Len() != 2 {
		t.Fatalf("snapshot block disturbed by source mutation (%p vs %p, %d rows)", again, blk, blk.Len())
	}
}

// TestSnapshotInheritsBlock: a snapshot taken while the source holds a
// current block adopts it instead of rebuilding.
func TestSnapshotInheritsBlock(t *testing.T) {
	r := NewRelation(colSchema(t))
	r.MustInsert(value.Int(1), value.String("a"))
	blk := r.EnsureColumnar()
	if blk == nil {
		t.Fatal("EnsureColumnar returned nil")
	}
	snap := r.Snapshot()
	if got := snap.ColumnarBlock(); got != blk {
		t.Fatalf("snapshot built a fresh block (%p) instead of inheriting %p", got, blk)
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
	// A no-op batch (all duplicates) must not disturb the memo — and must
	// not invalidate a columnar block either.
	blk := r.EnsureColumnar()
	if _, err := r.InsertBatch([]Tuple{{value.Int(1), value.String("a")}}); err != nil {
		t.Fatal(err)
	}
	if got := r.ColumnarBlock(); got != blk {
		t.Fatal("no-op batch invalidated the columnar block")
	}
	// With a block current, DistinctCount answers from the dictionary.
	if n := r.DistinctCount(1); n != 1 {
		t.Fatalf("dictionary DistinctCount(tag) = %d, want 1", n)
	}
}

// TestColumnarUsageCounters: building and inheriting blocks, and reading
// a block column, move the process-wide counters exposed on /metrics.
func TestColumnarUsageCounters(t *testing.T) {
	before := ColumnarUsage()
	r := NewRelation(colSchema(t))
	for i := 0; i < 8; i++ {
		r.MustInsert(value.Int(int64(i)), value.String(fmt.Sprintf("t%d", i%3)))
	}
	if r.EnsureColumnar() == nil {
		t.Fatal("EnsureColumnar returned nil")
	}
	snap := r.Snapshot() // inherits the current block
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
	if after.SnapshotsColumnarized <= before.SnapshotsColumnarized {
		t.Error("SnapshotsColumnarized did not advance")
	}
	if after.DictBytes <= before.DictBytes || after.CodeBytes <= before.CodeBytes {
		t.Errorf("byte counters did not advance: dict %d->%d, code %d->%d",
			before.DictBytes, after.DictBytes, before.CodeBytes, after.CodeBytes)
	}
}

// TestBlockColumnsEncodeOnFirstUse: a block encodes a column only when a
// reader first asks for it, once, and every relation sharing the block
// sees the encoding.
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
	if n := len(blk.AppendAll(nil)); n != 1600 {
		t.Fatalf("full scan read %d rows, want 1600", n)
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

	// A snapshot that adopted the head's block sees the columns the head
	// encodes, without encoding them again.
	r := benchRelation(64)
	head := r.EnsureColumnar()
	snap := r.Snapshot()
	if snap.ColumnarBlock() != head {
		t.Fatal("snapshot did not adopt the head's block")
	}
	col := head.Column(0)
	mark := ColumnarUsage()
	if got := snap.ColumnarBlock().Column(0); got != col {
		t.Fatal("snapshot does not see the column the head encoded")
	}
	if u := ColumnarUsage(); u.DictBytes != mark.DictBytes || u.CodeBytes != mark.CodeBytes {
		t.Fatal("reading an encoded column through the snapshot encoded it again")
	}

	// Concurrent first readers of one column encode it once.
	blk = benchRelation(1600).Snapshot().ColumnarBlock()
	mark = ColumnarUsage()
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

// TestColumnarConcurrentBuild hammers a mutable relation with concurrent
// block requests while a writer mutates — meaningful under -race; also
// asserts no reader ever observes a block inconsistent with a quiescent
// final state.
func TestColumnarConcurrentBuild(t *testing.T) {
	r := NewRelation(colSchema(t))
	for i := 0; i < 100; i++ {
		r.MustInsert(value.Int(int64(i)), value.String("seed"))
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 100; i < 200; i++ {
			r.MustInsert(value.Int(int64(i)), value.String("w"))
		}
	}()
	for {
		if blk := r.ColumnarBlock(); blk != nil {
			// Whatever generation this block is from, its row count must
			// match a prefix state: between 100 and 200 rows.
			if n := blk.Len(); n < 100 || n > 200 {
				t.Fatalf("block has %d rows, outside [100,200]", n)
			}
		}
		select {
		case <-done:
			blk := r.EnsureColumnar()
			if blk == nil {
				t.Fatal("EnsureColumnar nil after writer finished")
			}
			if blk.Len() != 200 {
				t.Fatalf("final block has %d rows, want 200", blk.Len())
			}
			return
		default:
		}
	}
}
