package storage

import (
	"fmt"
	"testing"

	"repro/internal/value"
)

// benchRelation builds an n-tuple relation over snapSchema's R with a
// dense int column and a 16-value string column.
func benchRelation(n int) *Relation {
	r := NewRelation(snapSchema().Relation("R"))
	for i := 0; i < n; i++ {
		r.MustInsert(value.Int(int64(i)), value.String(fmt.Sprintf("s%d", i%16)))
	}
	return r
}

// BenchmarkSnapshotUnchanged measures Snapshot of a relation that has not
// changed since its last snapshot: it returns the frozen object it
// already handed out, so it allocates nothing.
func BenchmarkSnapshotUnchanged(b *testing.B) {
	r := benchRelation(10_000)
	r.Snapshot()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snapSink = r.Snapshot()
	}
}

// snapSink keeps the benchmarked Snapshot calls observable.
var snapSink *Relation

// BenchmarkColumnarBuild measures one dictionary-encoded block build over
// a fresh 10,000-tuple frozen snapshot. A block encodes a column on its
// first read, so the timed section reads every column: it measures a
// full encode from scratch.
func BenchmarkColumnarBuild(b *testing.B) {
	r := benchRelation(10_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		// A content change makes the next Snapshot a new frozen object
		// with no block yet. The compaction before it cuts the new
		// snapshot's link to the last one, whose block the previous op
		// read, so the new block encodes from scratch, not by extension.
		r.Compact()
		r.MustInsert(value.Int(int64(-1-i)), value.String("x"))
		snap := r.Snapshot()
		b.StartTimer()
		blk := snap.ColumnarBlock()
		if blk == nil {
			b.Fatal("no block")
		}
		for col := range snap.Schema().Arity() {
			blk.DistinctCount(col)
		}
	}
}

// BenchmarkColumnarExtend measures encoding both columns of a snapshot
// that appended 10 rows to a 3,000-row predecessor whose columns are
// encoded: column 0 takes 10 fresh keys, so its postings are appended,
// and column 1 repeats its 16 values, so its postings are rebuilt. Each
// op extends the predecessor in place as its first successor does, so
// it measures what a new head of an appended relation pays: hashing the
// appended rows and copying the probe tables.
func BenchmarkColumnarExtend(b *testing.B) {
	r := benchRelation(2990)
	r.Snapshot().ColumnarBlock().DistinctCount(0)
	for i := 2990; i < 3000; i++ {
		r.MustInsert(value.Int(int64(i)), value.String(fmt.Sprintf("s%d", i%16)))
	}
	// The predecessor extends its own, so its arrays have room past its
	// rows, as a head's have after the first extension.
	pred := r.Snapshot()
	blk := pred.ColumnarBlock()
	cols := []*Column{blk.Column(0), blk.Column(1)}
	for i := 3000; i < 3010; i++ {
		r.MustInsert(value.Int(int64(i)), value.String(fmt.Sprintf("s%d", i%16)))
	}
	next := r.Snapshot()
	if next.prev.Value() != pred {
		b.Fatal("the appended snapshot does not link its predecessor")
	}
	before := ColumnarUsage().ColumnsExtended
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		// A fresh frozen relation over the same rows, as Snapshot makes
		// it, with the predecessor's tails unclaimed again. Reading the
		// predecessor's block keeps it in the block set.
		succ := &Relation{schema: next.schema, frozen: true, rows: next.rows, live: next.live, prev: next.prev}
		if pred.ColumnarBlock() != blk {
			b.Fatal("the predecessor's block was evicted")
		}
		for _, c := range cols {
			c.tail.Store(false)
		}
		b.StartTimer()
		sb := succ.ColumnarBlock()
		if sb.DistinctCount(0) != 3010 || sb.DistinctCount(1) != 16 {
			b.Fatalf("distinct counts %d and %d, want 3010 and 16", sb.DistinctCount(0), sb.DistinctCount(1))
		}
	}
	b.StopTimer()
	if n := ColumnarUsage().ColumnsExtended - before; n != uint64(2*b.N) {
		b.Fatalf("%d columns extended over %d ops, want %d", n, b.N, 2*b.N)
	}
}

// BenchmarkColumnarProbe resolves a key to its code and reads its posting
// list on a warm block, as a compiled plan's columnar probe step does. It
// allocates nothing.
func BenchmarkColumnarProbe(b *testing.B) {
	blk := benchRelation(2000).Snapshot().ColumnarBlock()
	blk.Column(0)
	rows := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		code, ok := blk.Code(0, value.Int(int64(i%2000)))
		if !ok {
			b.Fatal("key missing from the dictionary")
		}
		rows += len(blk.Postings(0, code))
	}
	if rows != b.N {
		b.Fatalf("probes found %d rows, want %d", rows, b.N)
	}
}

// benchTuples returns benchRelation's n tuples as a batch.
func benchTuples(n int) []Tuple {
	ts := make([]Tuple, n)
	for i := range ts {
		ts[i] = Tuple{value.Int(int64(i)), value.String(fmt.Sprintf("s%d", i%16))}
	}
	return ts
}

// BenchmarkInsertBatch loads 2,000 tuples into an empty relation per op:
// the membership table and the row arena, with no index.
func BenchmarkInsertBatch(b *testing.B) {
	rs := snapSchema().Relation("R")
	ts := benchTuples(2000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := NewRelation(rs)
		if n, err := r.InsertBatch(ts); err != nil || n != len(ts) {
			b.Fatalf("InsertBatch = %d, %v", n, err)
		}
	}
}

// BenchmarkBuildIndex builds the 16-value string column's index over
// 2,000 rows per op.
func BenchmarkBuildIndex(b *testing.B) {
	r := benchRelation(2000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.BuildIndex(1)
	}
}

// BenchmarkAppendLookup probes a warm index on the key column into a
// reused buffer, as a compiled plan's join step does.
func BenchmarkAppendLookup(b *testing.B) {
	r := benchRelation(2000)
	r.BuildIndex(0)
	buf := make([]Tuple, 0, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = r.AppendLookup(buf[:0], 0, value.Int(int64(i%2000)))
	}
	if len(buf) != 1 {
		b.Fatalf("lookup returned %d rows", len(buf))
	}
}

// BenchmarkDistinctCount counts a column's distinct values over 2,000
// unindexed rows with the memo cold, as the planner's first compile over
// a mutable relation after a write does: the key column (2,000 values)
// and the tag column (16 values).
func BenchmarkDistinctCount(b *testing.B) {
	r := benchRelation(2000)
	for _, c := range []struct {
		name      string
		col, want int
	}{{"key", 0, 2000}, {"tag", 1, 16}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if d := r.distinctCount(c.col); d != c.want {
					b.Fatalf("distinct count %d, want %d", d, c.want)
				}
			}
		})
	}
}
