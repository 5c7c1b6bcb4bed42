package storage_test

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/gtopdb"
	"repro/internal/storage"
	"repro/internal/value"
)

// The version history of citeload's mixed workload: a 300-family GtoPdb
// database, then K versions that each append 10 fresh rows to Family,
// FamilyIntro and Target. 286 versions is a mixed run's commit count.
const (
	historyFamilies = 300
	historyBatch    = 10
	historyVersions = 286
)

// heapLive returns the bytes of live heap objects after a collection.
func heapLive() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// appendBatch appends version v's rows: historyBatch fresh tuples to each
// of Family, FamilyIntro and Target, with keys far above the generated
// ones, as mixed's ingests have.
func appendBatch(tb testing.TB, db *storage.Database, v int) {
	tb.Helper()
	fam, intro, tgt := make([]storage.Tuple, historyBatch), make([]storage.Tuple, historyBatch), make([]storage.Tuple, historyBatch)
	for i := range historyBatch {
		n := int64(v*historyBatch + i)
		fam[i] = storage.Tuple{value.Int(1_000_001 + n), value.String(fmt.Sprintf("Ingested family %d", 1_000_001+n)), value.String("curated later")}
		intro[i] = storage.Tuple{value.Int(2_000_001 + n), value.String(fmt.Sprintf("Introduction to ingested family %d.", 2_000_001+n))}
		tgt[i] = storage.Tuple{value.Int(1_000_001 + n), value.Int(1 + n*7919%historyFamilies), value.String(fmt.Sprintf("Ingested target %d", 1_000_001+n)), value.String("GPCR")}
	}
	for rel, ts := range map[string][]storage.Tuple{"Family": fam, "FamilyIntro": intro, "Target": tgt} {
		if n, err := db.Relation(rel).InsertBatch(ts); err != nil || n != historyBatch {
			tb.Fatalf("version %d: %s InsertBatch = %d, %v", v, rel, n, err)
		}
	}
}

// historyRelations are the relations each version of the history
// appends to.
var historyRelations = []string{"Family", "FamilyIntro", "Target"}

// appendVersions loads the history's base database and snapshots it as
// its first version, then appends k batches (appendBatch), snapshotting
// after every batch when commitEach is set and once after the last
// otherwise. With readBlocks set it reads each new version's blocks of
// the appended relations and encodes their key columns, as a cite of
// the new head does. It returns the heap bytes held after the first
// version, measured with every version and the head still live, and
// checks the final version's row counts.
func appendVersions(tb testing.TB, k int, commitEach, readBlocks bool) uint64 {
	tb.Helper()
	cfg := gtopdb.DefaultConfig()
	cfg.Families = historyFamilies
	db := gtopdb.Generate(cfg)
	versions := make([]*storage.Database, 1, k+1)
	versions[0] = db.Snapshot()
	before := heapLive()
	for v := range k {
		appendBatch(tb, db, v)
		if commitEach || v == k-1 {
			snap := db.Snapshot()
			versions = append(versions, snap)
			if readBlocks {
				for _, rel := range historyRelations {
					snap.Relation(rel).ColumnarBlock().Column(0)
				}
			}
		}
	}
	held := heapLive() - before
	first, last := versions[0], versions[len(versions)-1]
	for _, rel := range historyRelations {
		if got, want := last.Relation(rel).Len(), first.Relation(rel).Len()+k*historyBatch; got != want {
			tb.Fatalf("%s holds %d rows after %d versions, want %d", rel, got, k, want)
		}
	}
	runtime.KeepAlive(db)
	return held
}

// BenchmarkAppendVersions builds mixed's version history, 286 versions of
// 30 appended rows each, and reports the heap bytes each version holds
// (retained-B/version). Versions share their rows, so a version costs
// the rows it added, not a copy of every relation it wrote.
func BenchmarkAppendVersions(b *testing.B) {
	var held uint64
	for i := 0; i < b.N; i++ {
		held = appendVersions(b, historyVersions, true, false)
	}
	b.ReportMetric(float64(held)/historyVersions, "retained-B/version")
}

// BenchmarkVersionBlocks builds the same history and reads each new
// version's Family, FamilyIntro and Target blocks between batches,
// encoding their key columns as mixed's head cites do, then reports the
// heap bytes each version holds (retained-B/version). The block set
// bounds the relations holding a block, so a version nobody reads again
// keeps its changed rows and no block.
func BenchmarkVersionBlocks(b *testing.B) {
	var held uint64
	for i := 0; i < b.N; i++ {
		held = appendVersions(b, historyVersions, true, true)
	}
	b.ReportMetric(float64(held)/historyVersions, "retained-B/version")
}

// TestAppendedVersionsShareRows: 286 versions committed one by one hold
// less than 3 times the bytes of the same rows under one commit. Versions
// that each copied every relation they wrote would hold about 33 times
// as much.
func TestAppendedVersionsShareRows(t *testing.T) {
	each := appendVersions(t, historyVersions, true, false)
	once := appendVersions(t, historyVersions, false, false)
	t.Logf("%d versions hold %d B; one commit of the same rows holds %d B", historyVersions, each, once)
	if each >= 3*once {
		t.Errorf("%d versions hold %d B, %.1f times the %d B of one commit; want under 3 times",
			historyVersions, each, float64(each)/float64(once), once)
	}
}

// TestAppendedVersionsShareBlocks: the same 286 versions with each new
// version's blocks read between batches hold less than 4 times the bytes
// of one commit of the same rows with its blocks read. Each version's
// key columns extend its predecessor's, so the versions the block set
// holds share their columns' arrays and keep a probe table each. Encoding
// every version's columns from scratch held about 12.6 times as much.
func TestAppendedVersionsShareBlocks(t *testing.T) {
	each := appendVersions(t, historyVersions, true, true)
	once := appendVersions(t, historyVersions, false, true)
	t.Logf("%d versions with their blocks read hold %d B; one commit of the same rows holds %d B", historyVersions, each, once)
	if each >= 4*once {
		t.Errorf("%d versions hold %d B, %.1f times the %d B of one commit; want under 4 times",
			historyVersions, each, float64(each)/float64(once), once)
	}
}
