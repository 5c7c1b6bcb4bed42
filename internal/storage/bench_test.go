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
// a fresh 10,000-tuple frozen snapshot.
func BenchmarkColumnarBuild(b *testing.B) {
	r := benchRelation(10_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		// A content change makes the next Snapshot a new frozen object
		// with no block yet.
		r.MustInsert(value.Int(int64(-1-i)), value.String("x"))
		snap := r.Snapshot()
		b.StartTimer()
		if snap.ColumnarBlock() == nil {
			b.Fatal("no block")
		}
	}
}
