package core

import (
	"fmt"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/gtopdb"
	"repro/internal/storage"
	"repro/internal/value"
)

// heapLive returns the bytes of live heap objects after a collection.
func heapLive() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// durableVersionsHeld commits a durable 300-family GtoPdb system, then
// journals 286 batches of citeload mixed's ingest shape (10 fresh rows
// into each of Family, FamilyIntro and Target), committing after every
// batch when commitEach is set and once after the last otherwise, and
// checkpoints. It returns the heap bytes held after the first commit,
// measured with the system still live.
func durableVersionsHeld(t *testing.T, commitEach bool) uint64 {
	t.Helper()
	const versions, families, batch = 286, 300, 10
	cfg := gtopdb.DefaultConfig()
	cfg.Families = families
	sys := NewSystemFromDatabase(gtopdb.Generate(cfg))
	if err := sys.EnableDurability(filepath.Join(t.TempDir(), "data"), DurableOptions{}); err != nil {
		t.Fatal(err)
	}
	defer sys.CloseDurability()
	if _, _, err := sys.CommitVersioned("release 1"); err != nil {
		t.Fatal(err)
	}
	before := heapLive()
	for v := range versions {
		fam, intro, tgt := make([]storage.Tuple, batch), make([]storage.Tuple, batch), make([]storage.Tuple, batch)
		for i := range batch {
			n := int64(v*batch + i)
			fam[i] = storage.Tuple{value.Int(1_000_001 + n), value.String(fmt.Sprintf("Ingested family %d", 1_000_001+n)), value.String("curated later")}
			intro[i] = storage.Tuple{value.Int(2_000_001 + n), value.String(fmt.Sprintf("Introduction to ingested family %d.", 2_000_001+n))}
			tgt[i] = storage.Tuple{value.Int(1_000_001 + n), value.Int(1 + n*7919%families), value.String(fmt.Sprintf("Ingested target %d", 1_000_001+n)), value.String("GPCR")}
		}
		for rel, ts := range map[string][]storage.Tuple{"Family": fam, "FamilyIntro": intro, "Target": tgt} {
			if n, err := sys.Insert(rel, ts); err != nil || n != batch {
				t.Fatalf("version %d: %s insert = %d, %v", v, rel, n, err)
			}
		}
		if commitEach || v == versions-1 {
			if _, _, err := sys.CommitVersioned(fmt.Sprintf("release %d", v+2)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := sys.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	held := heapLive() - before
	runtime.KeepAlive(sys)
	return held
}

// TestDurableVersionsShareRows: on a durable system, 286 versions
// committed one by one hold less than 3 times the bytes of the same rows
// under one commit, and still do after a checkpoint has diffed and
// digested every version. A checkpoint that diffed versions by membership
// would leave a table behind on each of them.
func TestDurableVersionsShareRows(t *testing.T) {
	each := durableVersionsHeld(t, true)
	once := durableVersionsHeld(t, false)
	t.Logf("286 versions hold %d B after a checkpoint; one commit of the same rows holds %d B", each, once)
	if each >= 3*once {
		t.Errorf("286 versions hold %d B, %.1f times the %d B of one commit; want under 3 times",
			each, float64(each)/float64(once), once)
	}
}
