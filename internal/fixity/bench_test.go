package fixity

import (
	"testing"

	"repro/internal/gtopdb"
)

// BenchmarkDatabaseDigest digests a frozen 2,000-family GtoPdb snapshot:
// every relation sorted and hashed, the work a durable commit does under
// the exclusive engine lock and checkpoints and recovery repeat for every
// version. The same snapshot is digested on every op.
func BenchmarkDatabaseDigest(b *testing.B) {
	cfg := gtopdb.DefaultConfig()
	cfg.Families = 2000
	snap := gtopdb.Generate(cfg).Snapshot()
	want := DatabaseDigest(snap)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := DatabaseDigest(snap); got != want {
			b.Fatalf("digest changed: %s, want %s", got, want)
		}
	}
}
