package core

import (
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/gtopdb"
	"repro/internal/storage"
	"repro/internal/value"
)

// BenchmarkCheckpoint measures one checkpoint of a durable 300-family
// GtoPdb system holding 32 committed versions that each change only
// Family: building the entries that rebuild the state (digesting every
// version), encoding them, writing and fsyncing the file, and truncating
// the log.
func BenchmarkCheckpoint(b *testing.B) {
	const versions, families = 32, 300
	cfg := gtopdb.DefaultConfig()
	cfg.Families = families
	sys := NewSystemFromDatabase(gtopdb.Generate(cfg))
	if err := sys.EnableDurability(filepath.Join(b.TempDir(), "data"), DurableOptions{}); err != nil {
		b.Fatal(err)
	}
	defer sys.CloseDurability()
	sys.Commit("release 1")
	for v := 2; v <= versions; v++ {
		t := storage.Tuple{value.Int(int64(families + v)), value.String(fmt.Sprintf("Family added in release %d", v)), value.String("added")}
		if _, err := sys.Insert("Family", []storage.Tuple{t}); err != nil {
			b.Fatal(err)
		}
		sys.Commit(fmt.Sprintf("release %d", v))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sys.Checkpoint(); err != nil {
			b.Fatal(err)
		}
	}
}
