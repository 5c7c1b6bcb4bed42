package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/durable"
	"repro/internal/fixity"
	"repro/internal/schema"
	"repro/internal/storage"
	"repro/internal/value"
)

func famTuple(id int64, name, desc string) storage.Tuple {
	return storage.Tuple{value.Int(id), value.String(name), value.String(desc)}
}

// durableSystem enables durability on the paper fixture in a fresh dir.
func durableSystem(t *testing.T, opts DurableOptions) (*System, string) {
	t.Helper()
	sys := paperSystem(t)
	dir := filepath.Join(t.TempDir(), "data")
	if err := sys.EnableDurability(dir, opts); err != nil {
		t.Fatal(err)
	}
	return sys, dir
}

// historiesEqual compares version histories field by field (timestamps
// via Equal: a recovered time.Time is the same instant but may not be
// bit-identical to one fresh from time.Now).
func historiesEqual(a, b []fixity.VersionInfo) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Version != b[i].Version || a[i].Message != b[i].Message ||
			a[i].Tuples != b[i].Tuples || !a[i].Timestamp.Equal(b[i].Timestamp) {
			return false
		}
	}
	return true
}

// buildDurableHistory journals a small mixed workload: three commits with
// inserts, a delete, a policy change and an extra view in between.
func buildDurableHistory(t *testing.T, sys *System) {
	t.Helper()
	mustN := func(n int, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			t.Fatal("mutation was a no-op")
		}
	}
	sys.Commit("v1")
	mustN(sys.Insert("Family", []storage.Tuple{
		famTuple(13, "Amylin", "A1"),
		famTuple(14, "Ghrelin", "G1"),
	}))
	mustN(sys.Insert("Committee", []storage.Tuple{{value.Int(13), value.String("Dave")}}))
	sys.Commit("v2")
	mustN(sys.Delete("Family", []storage.Tuple{famTuple(14, "Ghrelin", "G1")}))
	if err := sys.SetPolicyNamed("maxcoverage"); err != nil {
		t.Fatal(err)
	}
	if err := sys.DefineView(
		"lambda FID. V9(FID, PName) :- Committee(FID, PName)", nil,
		CitationSpec{Query: "lambda FID. CV9(FID, PName) :- Committee(FID, PName)",
			Fields: []string{"", "author"}},
	); err != nil {
		t.Fatal(err)
	}
	sys.Commit("v3")
}

// TestDurableReopenByteIdentical is the end-to-end fixity proof: commit,
// pin a citation, "crash" (drop the system without checkpoint or clean
// close), reopen the directory, and require the identical version
// history and a byte-identical re-derivation of the pinned citation.
func TestDurableReopenByteIdentical(t *testing.T) {
	sys, dir := durableSystem(t, DurableOptions{})
	buildDurableHistory(t, sys)

	const q = "Q(FName) :- Family(FID, FName, Desc)"
	ctx := context.Background()
	orig, err := sys.CiteContext(ctx, q, AtVersion(2))
	if err != nil {
		t.Fatal(err)
	}
	origText := orig.Text()
	origJSON, err := orig.JSON()
	if err != nil {
		t.Fatal(err)
	}
	origHist := sys.Store().History()
	if len(origHist) != 3 {
		t.Fatalf("history has %d versions, want 3", len(origHist))
	}
	// Crash: abandon the System without a checkpoint. Closing the log
	// releases the writer flock so this process can reopen the directory
	// — a faithful in-process kill -9: appends are unbuffered (already in
	// the page cache), so the only thing a real crash additionally skips
	// is the final fsync, whose loss behavior the crash-point test covers
	// byte by byte. The CI smoke job exercises the real kill -9 across
	// processes.
	if err := sys.CloseDurability(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.CloseDurability()
	if got := re.Store().History(); !historiesEqual(origHist, got) {
		t.Fatalf("recovered history differs:\n orig: %+v\n got: %+v", origHist, got)
	}
	if stats, ok := re.Durability(); !ok || stats.RecoveredVersion != 3 || !stats.Enabled {
		t.Fatalf("durability stats after recovery: %+v (ok=%v)", stats, ok)
	}

	got, err := re.CiteContext(ctx, q, AtVersion(2))
	if err != nil {
		t.Fatal(err)
	}
	if gotText := got.Text(); gotText != origText {
		t.Fatalf("recovered citation text differs:\n orig: %s\n got: %s", origText, gotText)
	}
	gotJSON, err := got.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if gotJSON != origJSON {
		t.Fatalf("recovered citation JSON differs:\n orig: %s\n got: %s", origJSON, gotJSON)
	}

	// The pin handed out before the crash verifies against the recovered
	// store — the fixity guarantee across restarts.
	if orig.Pin == nil {
		t.Fatal("original citation carries no pin")
	}
	ok, err := re.Store().Verify(*orig.Pin)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("pre-crash pin does not verify against the recovered store")
	}

	// The recovered system keeps journaling: another commit survives a
	// second reopen.
	if _, err := re.Insert("Family", []storage.Tuple{famTuple(15, "Motilin", "M1")}); err != nil {
		t.Fatal(err)
	}
	re.Commit("v4")
	if err := re.CloseDurability(); err != nil {
		t.Fatal(err)
	}
	re2, err := Open(dir, DurableOptions{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if re2.Store().Latest() != 4 {
		t.Fatalf("second recovery: latest = %d, want 4", re2.Store().Latest())
	}
	if db, _ := re2.Store().At(4); !db.Relation("Family").Contains(famTuple(15, "Motilin", "M1")) {
		t.Fatal("post-recovery insert lost")
	}
}

// TestDurableCrashPointReplay is the crash-point equivalence proof: the
// log tail is truncated at every byte boundary, and every truncation
// must recover to a clean prefix of the original commit history (Open
// verifies each rebuilt version's digest internally; a mangled state
// cannot pass it).
func TestDurableCrashPointReplay(t *testing.T) {
	sys, dir := durableSystem(t, DurableOptions{})
	buildDurableHistory(t, sys)
	refHist := sys.Store().History()
	if err := sys.CloseDurability(); err != nil {
		t.Fatal(err)
	}

	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.wal"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("want exactly 1 segment, got %v (err %v)", segs, err)
	}
	full, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	others, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		t.Fatal(err)
	}

	scratch := t.TempDir()
	prevVersions := -1
	for cut := 0; cut <= len(full); cut++ {
		cdir := filepath.Join(scratch, "d")
		if err := os.RemoveAll(cdir); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(cdir, 0o755); err != nil {
			t.Fatal(err)
		}
		for _, p := range others {
			if p == segs[0] {
				continue
			}
			data, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(cdir, filepath.Base(p)), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(filepath.Join(cdir, filepath.Base(segs[0])), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}

		re, err := Open(cdir, DurableOptions{ReadOnly: true})
		if err != nil {
			// A torn single-segment tail must always recover; only true
			// corruption may refuse, and truncation cannot manufacture it.
			t.Fatalf("cut %d: recovery failed: %v", cut, err)
		}
		got := re.Store().History()
		if len(got) > len(refHist) || !historiesEqual(refHist[:len(got)], got) {
			t.Fatalf("cut %d: recovered history is not a prefix (%d versions)", cut, len(got))
		}
		if len(got) < prevVersions {
			t.Fatalf("cut %d: commit prefix shrank from %d to %d versions", cut, prevVersions, len(got))
		}
		prevVersions = len(got)
	}
	if prevVersions != len(refHist) {
		t.Fatalf("full log recovered only %d of %d versions", prevVersions, len(refHist))
	}
}

// TestDurableCorruptionRefused flips a byte in the middle of the log:
// recovery must refuse with ErrCorrupt rather than serve a mangled
// state. (The flipped record is followed by valid entries on a later
// segment, so the prefix interpretation is unavailable.)
func TestDurableCorruptionRefused(t *testing.T) {
	sys, dir := durableSystem(t, DurableOptions{SegmentBytes: 64})
	buildDurableHistory(t, sys)
	if err := sys.CloseDurability(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.wal"))
	if err != nil || len(segs) < 2 {
		t.Fatalf("want >= 2 segments, got %v (err %v)", segs, err)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, DurableOptions{ReadOnly: true}); err == nil {
		t.Fatal("recovery accepted a corrupted mid-log record")
	}
}

// TestDurableCheckpointTruncatesAndRecovers exercises automatic
// checkpointing: the log truncates, old checkpoints are garbage
// collected, and recovery over checkpoint+tail rebuilds the identical
// history.
func TestDurableCheckpointTruncatesAndRecovers(t *testing.T) {
	sys, dir := durableSystem(t, DurableOptions{CheckpointEvery: 2})
	sys.Commit("v1")
	for i := int64(0); i < 4; i++ {
		if _, err := sys.Insert("Family", []storage.Tuple{famTuple(20+i, "F", "D")}); err != nil {
			t.Fatal(err)
		}
		sys.Commit("vN")
	}
	if _, err := sys.Delete("Family", []storage.Tuple{famTuple(20, "F", "D")}); err != nil {
		t.Fatal(err)
	}
	stats, ok := sys.Durability()
	if !ok || stats.Checkpoints < 2 {
		t.Fatalf("expected >= 2 automatic checkpoints, stats %+v", stats)
	}
	ckpts, err := filepath.Glob(filepath.Join(dir, "ckpt-*.dcx"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ckpts) != 1 {
		t.Fatalf("old checkpoints not collected: %v", ckpts)
	}
	refHist := sys.Store().History()
	refHead := fixity.DatabaseDigest(sys.Database())
	// Crash without close.

	re, err := Open(dir, DurableOptions{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := re.Store().History(); !historiesEqual(refHist, got) {
		t.Fatalf("checkpointed recovery history differs:\n orig: %+v\n got: %+v", refHist, got)
	}
	if got := fixity.DatabaseDigest(re.Database()); got != refHead {
		t.Fatalf("recovered head digest %s, want %s", got, refHead)
	}
}

// TestDurableConfigSurvives proves policy and view changes journal: the
// recovered system serves the same citation for a query that needs the
// post-enable view and the post-enable policy.
func TestDurableConfigSurvives(t *testing.T) {
	sys, dir := durableSystem(t, DurableOptions{})
	buildDurableHistory(t, sys) // sets maxcoverage + defines V9
	const q = "Q(PName) :- Committee(FID, PName)"
	orig, err := sys.Cite(q)
	if err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir, DurableOptions{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if re.Registry().Len() != sys.Registry().Len() {
		t.Fatalf("recovered %d views, want %d", re.Registry().Len(), sys.Registry().Len())
	}
	got, err := re.Cite(q)
	if err != nil {
		t.Fatal(err)
	}
	if got.Text() != orig.Text() {
		t.Fatalf("recovered default-policy citation differs:\n orig: %s\n got: %s", orig.Text(), got.Text())
	}
}

// TestDurableReadOnly: a read-only recovery rejects journaled mutations
// and leaves the directory untouched.
func TestDurableReadOnly(t *testing.T) {
	sys, dir := durableSystem(t, DurableOptions{})
	sys.Commit("v1")
	if err := sys.CloseDurability(); err != nil {
		t.Fatal(err)
	}
	before, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir, DurableOptions{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := re.Insert("Family", []storage.Tuple{famTuple(99, "X", "Y")}); err == nil {
		t.Fatal("read-only system accepted Insert")
	}
	if _, _, err := re.CommitVersioned("nope"); err == nil {
		t.Fatal("read-only system accepted Commit")
	}
	if err := re.SetPolicyNamed("all"); err == nil {
		t.Fatal("read-only system accepted SetPolicyNamed")
	}
	if err := re.DefineView("V8(A) :- Committee(A, B)", nil); err == nil {
		t.Fatal("read-only system accepted DefineView")
	}
	after, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(before) != len(after) {
		t.Fatalf("read-only open changed the directory: %v -> %v", before, after)
	}
	// Reads still work.
	if _, err := re.Cite("Q(FName) :- Family(FID, FName, Desc)"); err != nil {
		t.Fatal(err)
	}
}

// TestDurableInitErrors: directory state machine edges.
func TestDurableInitErrors(t *testing.T) {
	if _, err := Open(filepath.Join(t.TempDir(), "missing"), DurableOptions{}); err == nil {
		t.Fatal("Open on a missing directory succeeded")
	}
	sys, dir := durableSystem(t, DurableOptions{})
	if err := sys.EnableDurability(dir, DurableOptions{}); err == nil {
		t.Fatal("double EnableDurability succeeded")
	}
	other := paperSystem(t)
	if err := other.EnableDurability(dir, DurableOptions{}); err == nil {
		t.Fatal("EnableDurability on an initialized directory succeeded")
	}
	if err := other.EnableDurability(t.TempDir(), DurableOptions{ReadOnly: true}); err == nil {
		t.Fatal("EnableDurability accepted ReadOnly")
	}
	if !durable.Initialized(dir) {
		t.Fatal("initialized dir not detected")
	}
}

// TestDurableRefusesUnjournaledCommit: a direct Database() mutation
// bypasses the log; sealing it would brick recovery (replay rebuilds
// different contents and fails the digest check), so the commit must be
// refused loudly at commit time instead.
func TestDurableRefusesUnjournaledCommit(t *testing.T) {
	sys, dir := durableSystem(t, DurableOptions{})
	sys.Commit("v1")
	if err := sys.Database().Insert("Family", value.Int(66), value.String("Rogue"), value.String("R")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := sys.CommitVersioned("v2"); err == nil {
		t.Fatal("commit of un-journaled head mutations accepted")
	}
	// The journaled path still works after reconciling through it.
	if _, err := sys.Insert("Family", []storage.Tuple{famTuple(67, "Proper", "P")}); err != nil {
		t.Fatal(err)
	}
	if err := sys.CloseDurability(); err != nil {
		t.Fatal(err)
	}
	// The directory stayed recoverable: version 1 only, rogue tuple
	// absent from history (it was never journaled).
	re, err := Open(dir, DurableOptions{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if re.Store().Latest() != 1 {
		t.Fatalf("recovered latest = %d, want 1", re.Store().Latest())
	}
}

// TestDurableRecoverySharesUnchangedRelations: a system recovered with
// Open — checkpointed versions plus a replayed log tail — shares each
// unchanged relation across its versions exactly as the live system did,
// so versioned cache entries keep serving every version that shares
// their inputs after a restart.
func TestDurableRecoverySharesUnchangedRelations(t *testing.T) {
	sys, dir := durableSystem(t, DurableOptions{})
	buildDurableHistory(t, sys)
	if err := sys.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Insert("FamilyIntro", []storage.Tuple{{value.Int(13), value.String("3rd")}}); err != nil {
		t.Fatal(err)
	}
	sys.Commit("v4")
	sys.Commit("v5 (no data change)")

	// sharing lists, per version after the first and per relation,
	// whether the version holds the same frozen relation as its
	// predecessor.
	sharing := func(s *System) []string {
		var out []string
		for v := fixity.Version(2); v <= s.Store().Latest(); v++ {
			prev, _ := s.Store().At(v - 1)
			cur, _ := s.Store().At(v)
			for _, name := range cur.Schema().Names() {
				out = append(out, fmt.Sprintf("v%d %s shared=%v", v, name, prev.Relation(name) == cur.Relation(name)))
			}
		}
		return out
	}
	want := sharing(sys)
	if !slices.Contains(want, "v2 FamilyIntro shared=true") || !slices.Contains(want, "v4 FamilyIntro shared=false") {
		t.Fatalf("live history does not share as expected: %v", want)
	}
	if err := sys.CloseDurability(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir, DurableOptions{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := sharing(re); !slices.Equal(got, want) {
		t.Errorf("recovered sharing differs:\n got %v\nwant %v", got, want)
	}
}

// TestCheckpointKeepsKeyLookalikes: two tuples whose Tuple.Key
// renderings coincide are still two tuples to a checkpoint. Version 2
// swaps one for the other, and a reopen from the checkpoint alone must
// rebuild both versions and the head by value. The digest check cannot
// catch a mix-up here, because it hashes the same rendering.
func TestCheckpointKeepsKeyLookalikes(t *testing.T) {
	a := famTuple(99, "a\x1f0b", "c")
	b := famTuple(99, "a", "b\x1f0c")
	if a.Key() != b.Key() {
		t.Fatal("the fixture tuples no longer render alike")
	}
	sys, dir := durableSystem(t, DurableOptions{})
	if _, err := sys.Insert("Family", []storage.Tuple{a}); err != nil {
		t.Fatal(err)
	}
	sys.Commit("v1")
	if _, err := sys.Delete("Family", []storage.Tuple{a}); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Insert("Family", []storage.Tuple{b}); err != nil {
		t.Fatal(err)
	}
	sys.Commit("v2")
	if err := sys.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := sys.CloseDurability(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir, DurableOptions{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	v1, _ := re.Store().At(1)
	v2, _ := re.Store().At(2)
	for _, c := range []struct {
		name       string
		db         *storage.Database
		has, lacks storage.Tuple
	}{
		{"version 1", v1, a, b},
		{"version 2", v2, b, a},
		{"head", re.Database(), b, a},
	} {
		fam := c.db.Relation("Family")
		if !fam.Contains(c.has) || fam.Contains(c.lacks) {
			t.Errorf("recovered %s: has %v = %v, has %v = %v",
				c.name, c.has, fam.Contains(c.has), c.lacks, fam.Contains(c.lacks))
		}
	}
}

// TestCheckpointKeepsRowOrder: a tuple deleted and inserted again moves
// to the end of its relation's rows, and a checkpoint must rebuild that
// order, not only the set. A relation holding both zeros digests by its
// row order (Tuple.Compare ties 0 with -0), so a checkpoint that rebuilt
// version 2 in version 1's order would fail recovery's digest check; a
// relation without ties would silently change an identity view's answer
// order. The head repeats the move after the last commit.
func TestCheckpointKeepsRowOrder(t *testing.T) {
	s := schema.New()
	s.MustAdd(schema.MustRelation("F", []schema.Attribute{
		{Name: "X", Kind: value.KindFloat},
		{Name: "S", Kind: value.KindString},
	}))
	sys := NewSystem(s)
	dir := filepath.Join(t.TempDir(), "data")
	if err := sys.EnableDurability(dir, DurableOptions{}); err != nil {
		t.Fatal(err)
	}
	zero := storage.Tuple{value.Float(0), value.String("z")}
	negZero := storage.Tuple{value.Float(math.Copysign(0, -1)), value.String("z")}
	other := storage.Tuple{value.Float(1), value.String("o")}
	move := func(tu storage.Tuple) {
		t.Helper()
		if _, err := sys.Delete("F", []storage.Tuple{tu}); err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Insert("F", []storage.Tuple{tu}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sys.Insert("F", []storage.Tuple{zero, negZero, other}); err != nil {
		t.Fatal(err)
	}
	sys.Commit("v1")
	move(zero)
	sys.Commit("v2")
	move(negZero)
	rowKeys := func(db *storage.Database) []string {
		var out []string
		for _, tu := range db.Relation("F").Tuples() {
			out = append(out, tu.Key())
		}
		return out
	}
	var want [][]string
	for v := fixity.Version(1); v <= 2; v++ {
		db, _ := sys.Store().At(v)
		want = append(want, rowKeys(db))
	}
	want = append(want, rowKeys(sys.Database()))
	if err := sys.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := sys.CloseDurability(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir, DurableOptions{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range []string{"version 1", "version 2", "head"} {
		db := re.Database()
		if i < 2 {
			db, _ = re.Store().At(fixity.Version(i + 1))
		}
		if got := rowKeys(db); !slices.Equal(got, want[i]) {
			t.Errorf("recovered %s rows %q, want %q", name, got, want[i])
		}
	}
}

// TestDefineViewJournalsBeforeRegistering: a view whose journal append
// fails is not registered, and neither the epoch nor the configuration
// generation moves, so a restart cannot lose a view the live system
// served.
func TestDefineViewJournalsBeforeRegistering(t *testing.T) {
	sys, _ := durableSystem(t, DurableOptions{})
	views, epoch, cfg := sys.Registry().Len(), sys.Version(), sys.ConfigVersion()
	if err := sys.wal.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sys.DefineView("lambda FID. V9(FID, PName) :- Committee(FID, PName)", nil); err == nil {
		t.Fatal("DefineView succeeded on a closed journal")
	}
	if sys.Registry().Len() != views || sys.Registry().View("V9") != nil {
		t.Fatal("a view whose journal append failed is registered")
	}
	if sys.Version() != epoch || sys.ConfigVersion() != cfg {
		t.Fatalf("failed DefineView moved Version %d -> %d, ConfigVersion %d -> %d",
			epoch, sys.Version(), cfg, sys.ConfigVersion())
	}
}

// TestCheckpointCarriesConfiguration: a checkpoint truncates the log
// that journaled the policy change and the extra view, so it must carry
// both itself.
func TestCheckpointCarriesConfiguration(t *testing.T) {
	sys, dir := durableSystem(t, DurableOptions{})
	buildDurableHistory(t, sys) // sets maxcoverage + defines V9
	if err := sys.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir, DurableOptions{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if re.polName != sys.polName || re.Generator().Policy() != sys.Generator().Policy() {
		t.Fatalf("recovered policy %q (%v), want %q (%v)",
			re.polName, re.Generator().Policy(), sys.polName, sys.Generator().Policy())
	}
	if re.Registry().Len() != sys.Registry().Len() {
		t.Fatalf("recovered %d views, want %d", re.Registry().Len(), sys.Registry().Len())
	}
	const q = "Q(PName) :- Committee(FID, PName)"
	orig, err := sys.Cite(q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := re.Cite(q)
	if err != nil {
		t.Fatal(err)
	}
	if got.Text() != orig.Text() {
		t.Fatalf("recovered citation differs:\n orig: %s\n got: %s", orig.Text(), got.Text())
	}
}

// TestDurableUnknownRelationIsCorrupt: an entry recovery cannot apply,
// here one naming a relation the manifest lacks, fails Open with
// durable.ErrCorrupt, whether the log tail or a checkpoint holds it.
func TestDurableUnknownRelationIsCorrupt(t *testing.T) {
	bad := durable.Entry{Type: durable.EntryInsert, Relation: "Nope", Tuples: []storage.Tuple{{value.Int(1)}}}
	t.Run("log", func(t *testing.T) {
		sys, dir := durableSystem(t, DurableOptions{})
		if _, err := sys.wal.Append(bad, true); err != nil {
			t.Fatal(err)
		}
		if err := sys.CloseDurability(); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(dir, DurableOptions{ReadOnly: true}); !errors.Is(err, durable.ErrCorrupt) {
			t.Fatalf("Open = %v, want an error wrapping ErrCorrupt", err)
		}
	})
	t.Run("checkpoint", func(t *testing.T) {
		sys, dir := durableSystem(t, DurableOptions{})
		if err := sys.CloseDurability(); err != nil {
			t.Fatal(err)
		}
		// Overwrite the checkpoint EnableDurability wrote at watermark 0.
		c := sys.buildCheckpointLocked(0)
		c.Entries = append(c.Entries, bad)
		if err := durable.WriteCheckpoint(dir, c); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(dir, DurableOptions{ReadOnly: true}); !errors.Is(err, durable.ErrCorrupt) {
			t.Fatalf("Open = %v, want an error wrapping ErrCorrupt", err)
		}
	})
}
