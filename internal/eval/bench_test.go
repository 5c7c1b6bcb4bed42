package eval

import (
	"testing"

	"repro/internal/cq"
	"repro/internal/gtopdb"
	"repro/internal/schema"
	"repro/internal/storage"
)

// BenchmarkMaterialize is a versioned cite's per-view path: materialize a
// 2,000-row single-atom view over a frozen gtopdb snapshot, then compile
// a constant probe over the fresh view relation, which reads the view's
// distinct counts and builds the probe column's index.
func BenchmarkMaterialize(b *testing.B) {
	cfg := gtopdb.DefaultConfig()
	cfg.Families = 2000
	snap := gtopdb.Generate(cfg).Snapshot()
	view := cq.MustParse("FamilyView(FID, FName, Desc) :- Family(FID, FName, Desc)")
	probe := cq.MustParse("Q(FName, Desc) :- FamilyView(42, FName, Desc)")
	rs := schema.MustRelation("FamilyView", snap.Schema().Relation("Family").Attributes)
	// A frozen relation builds its columnar block on first use and keeps
	// it; build it here so even a one-iteration run measures the steady
	// per-cite path.
	snap.Relation("Family").EnsureColumnar()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rel := storage.NewRelation(rs)
		if err := Materialize(snap, view, rel); err != nil {
			b.Fatal(err)
		}
		if rel.Len() != cfg.Families {
			b.Fatalf("view holds %d rows, want %d", rel.Len(), cfg.Families)
		}
		if _, err := Compile(Relations{"FamilyView": rel}, probe); err != nil {
			b.Fatal(err)
		}
	}
}
