package policy

import (
	"fmt"
	"testing"

	"repro/internal/format"
)

// BenchmarkEvalAgg folds the per-tuple records of a 16-tuple answer into
// the result-level record under the default policy's union, as every
// cite's Agg step does. The tuples cite 8 families, two tuples each, so
// the union drops as many values as it keeps. Every op checks the
// folded record.
func BenchmarkEvalAgg(b *testing.B) {
	pol := Default()
	records := make([]format.Record, 16)
	for i := range records {
		fid := i / 2
		records[i] = format.NewRecord(
			format.FieldDatabase, "IUPHAR/BPS Guide to PHARMACOLOGY",
			format.FieldIdentifier, fmt.Sprint(fid),
			format.FieldAuthor, fmt.Sprintf("Author %d", fid),
		)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rec := pol.EvalAgg(records)
		if len(rec[format.FieldIdentifier]) != 8 || len(rec[format.FieldAuthor]) != 8 || len(rec[format.FieldDatabase]) != 1 {
			b.Fatalf("op %d: %v", i, rec)
		}
	}
}
