package qstats

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/trace"
)

// BenchmarkObserveRequest measures folding one finished single-query
// request into the store. warm re-observes one text, so fingerprinting
// is a memo hit; distinct observes a fresh text per op, so every op
// parses and inserts into the fingerprint memo. The memo starts half
// full and cycles through its bound over a long run, so distinct B/op
// would climb with the memo's fill if an insert cost more than O(1).
func BenchmarkObserveRequest(b *testing.B) {
	tr := trace.New("cite")
	_, eval := trace.StartSpan(trace.NewContext(context.Background(), tr), "eval")
	eval.Add("tuples_examined", 3)
	eval.End()
	tr.Finish()
	text := func(i int) string { return fmt.Sprintf("Q(FName) :- Family(%d, FName, Desc)", i) }

	b.Run("warm", func(b *testing.B) {
		s := NewStore(0)
		out := []Outcome{{Query: text(0), Cache: "miss"}}
		s.ObserveRequest(tr, out)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.ObserveRequest(tr, out)
		}
	})
	b.Run("distinct", func(b *testing.B) {
		s := NewStore(0)
		for i := 0; i < maxFPCache/2; i++ {
			s.fingerprint(text(-1 - i))
		}
		outs := make([][]Outcome, b.N)
		for i := range outs {
			outs[i] = []Outcome{{Query: text(i), Cache: "miss"}}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.ObserveRequest(tr, outs[i])
		}
	})
}
