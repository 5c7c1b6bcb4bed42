package trace

import (
	"context"
	"testing"
	"time"
)

// spansPerTrace bounds the tree a sampled benchmark run builds: a fresh
// trace every 256 spans, whose slab serves the first few as on a served
// cite.
const spansPerTrace = 256

// BenchmarkStartSpan opens and ends one engine span per op, as every
// pipeline stage does: sampled under a context that carries a trace, and
// unsampled under one that does not, where both calls are nil checks.
// Every op checks the span it got.
func BenchmarkStartSpan(b *testing.B) {
	b.Run("sampled", func(b *testing.B) {
		b.ReportAllocs()
		var ctx context.Context
		for i := 0; i < b.N; i++ {
			if i%spansPerTrace == 0 {
				ctx = NewContext(context.Background(), New("cite"))
			}
			_, sp := StartSpan(ctx, "plan")
			sp.End()
			if sp.Name() != "plan" || sp.Duration() <= 0 {
				b.Fatalf("op %d: span %q lasted %v", i, sp.Name(), sp.Duration())
			}
		}
	})
	b.Run("unsampled", func(b *testing.B) {
		b.ReportAllocs()
		ctx := context.Background()
		for i := 0; i < b.N; i++ {
			got, sp := StartSpan(ctx, "plan")
			sp.End()
			if sp != nil || got != ctx {
				b.Fatalf("op %d: an unsampled context opened a span", i)
			}
		}
	})
}

// BenchmarkHistogramVecObserve records one stage duration per op into the
// stage histogram family, cycling through the stage labels a cite feeds
// it, after one observation per label has inserted it. Every op checks
// that its label's count moved by one.
func BenchmarkHistogramVecObserve(b *testing.B) {
	stages := []string{"parse", "rewrite", "views", "plan", "eval", "policy", "fixity", "encode"}
	v := NewHistogramVec(nil)
	want := make([]int64, len(stages))
	hs := make([]*Histogram, len(stages))
	for i, st := range stages {
		v.Observe(st, time.Microsecond)
		want[i], hs[i] = 1, v.Get(st)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(stages)
		v.Observe(stages[k], time.Duration(i%5000)*time.Microsecond)
		want[k]++
		if n := hs[k].count.Load(); n != want[k] {
			b.Fatalf("op %d: %s counts %d observations, want %d", i, stages[k], n, want[k])
		}
	}
}
