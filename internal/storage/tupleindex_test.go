package storage

import (
	"fmt"
	"testing"

	"repro/internal/value"
)

// TestTupleIndexArenaOneTuple: a one-tuple index retains exactly that
// tuple's values, not a worst-case chunk.
func TestTupleIndexArenaOneTuple(t *testing.T) {
	var ix TupleIndex
	ix.Add(Tuple{value.Int(1), value.String("x"), value.Int(2)})
	if got := cap(ix.Tuple(0)); got != 3 {
		t.Fatalf("cloned tuple capacity %d, want its width 3", got)
	}
	if len(ix.arena) != 0 || cap(ix.arena) != 0 {
		t.Fatalf("leftover arena len %d cap %d, want empty", len(ix.arena), cap(ix.arena))
	}
}

// TestTupleIndexArenaGrowth: each new chunk holds as many values as the
// index already has — doubling from one tuple's width — until the
// 1,024-value cap, after which every chunk is exactly the cap.
func TestTupleIndexArenaGrowth(t *testing.T) {
	for _, width := range []int{1, 2, 3, 7} {
		var ix TupleIndex
		var sizes []int
		buf := make(Tuple, width)
		for i := 0; i < 4000; i++ {
			before := len(ix.arena)
			buf[0] = value.Int(int64(i))
			ix.Add(buf)
			if before < width { // this insert cut a fresh chunk
				sizes = append(sizes, cap(ix.arena)+width)
			}
		}
		// One tuple, then one more (the index holds one), then doubling.
		want := []int{width, width}
		for len(want) < len(sizes) {
			want = append(want, min(1024, 2*want[len(want)-1]))
		}
		if fmt.Sprint(sizes) != fmt.Sprint(want) {
			t.Fatalf("width %d: chunk sizes %v, want %v", width, sizes, want)
		}
		if last := sizes[len(sizes)-1]; last != 1024 {
			t.Fatalf("width %d: chunk sizes %v stop at %d, want the 1024 cap", width, sizes, last)
		}
	}
}

// TestTupleIndexArenaNoClobber: every retained tuple has capacity ==
// length, so appending to one reallocates instead of writing into the
// neighbor that shares its chunk.
func TestTupleIndexArenaNoClobber(t *testing.T) {
	var ix TupleIndex
	const n = 100
	for i := 0; i < n; i++ {
		ix.Add(Tuple{value.Int(int64(i)), value.Int(int64(-i))})
	}
	for id := 0; id < n; id++ {
		tu := ix.Tuple(id)
		if cap(tu) != len(tu) {
			t.Fatalf("tuple %d: cap %d != len %d", id, cap(tu), len(tu))
		}
		_ = append(tu, value.Int(999))
	}
	for id := 0; id < n; id++ {
		want := Tuple{value.Int(int64(id)), value.Int(int64(-id))}
		if !ix.Tuple(id).Equal(want) {
			t.Fatalf("tuple %d clobbered: %v", id, ix.Tuple(id))
		}
	}
}

// BenchmarkTupleIndexAdd builds a fresh index of n distinct two-value
// tuples per op from a reused buffer; B/op is what the index retains,
// so a small index must stay small.
func BenchmarkTupleIndexAdd(b *testing.B) {
	for _, n := range []int{1, 16, 4096} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			buf := Tuple{value.Int(0), value.String("x")}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var ix TupleIndex
				for j := 0; j < n; j++ {
					buf[0] = value.Int(int64(j))
					ix.Add(buf)
				}
				indexSink = &ix
			}
		})
	}
}

// indexSink keeps the benchmarked indexes observable.
var indexSink *TupleIndex
