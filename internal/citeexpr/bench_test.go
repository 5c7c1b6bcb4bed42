package citeexpr

import (
	"testing"

	"repro/internal/value"
)

// BenchmarkSemiring is the annotated evaluator's inner step on citation
// expressions: plus adds one derivation to a tuple's four alternatives,
// and times multiplies a two-factor product by one more factor, each
// with an atom that half the time repeats one already present, so
// deduplication both drops and keeps. Every op checks the children of
// its result.
func BenchmarkSemiring(b *testing.B) {
	var sr Semiring
	atoms := make([]Expr, 8)
	for i := range atoms {
		atoms[i] = NewAtom("FamilyView", value.Int(int64(i+1)))
	}
	b.Run("plus", func(b *testing.B) {
		alt := sr.Plus(sr.Plus(atoms[0], atoms[1]), sr.Plus(atoms[2], atoms[3]))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			k := i % len(atoms)
			want := 4
			if k >= 4 {
				want = 5
			}
			got, ok := sr.Plus(alt, atoms[k]).(Alt)
			if !ok || len(got.Children) != want {
				b.Fatalf("op %d: %v, want %d alternatives", i, got, want)
			}
		}
	})
	b.Run("times", func(b *testing.B) {
		joint := sr.Times(atoms[0], atoms[1])
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			k := i % len(atoms)
			want := 2
			if k >= 2 {
				want = 3
			}
			got, ok := sr.Times(joint, atoms[k]).(Joint)
			if !ok || len(got.Children) != want {
				b.Fatalf("op %d: %v, want %d factors", i, got, want)
			}
		}
	})
}
