package durable

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/schema"
	"repro/internal/storage"
	"repro/internal/value"
)

// --- random entry generation (the quick property test's generator) ---

func randomString(rng *rand.Rand) string {
	n := rng.Intn(12)
	b := make([]byte, n)
	for i := range b {
		// Include NULs, separators and high bytes: the codec is length-
		// prefixed and must not care.
		b[i] = byte(rng.Intn(256))
	}
	return string(b)
}

func randomValue(rng *rand.Rand) value.Value {
	switch rng.Intn(4) {
	case 0:
		return value.String(randomString(rng))
	case 1:
		return value.Int(rng.Int63() - rng.Int63())
	case 2:
		// Finite floats only: NaN breaks reflect.DeepEqual, not the codec.
		return value.Float((rng.Float64() - 0.5) * 1e9)
	default:
		return value.Time(time.Unix(0, rng.Int63()-rng.Int63()).UTC())
	}
}

func randomTuples(rng *rand.Rand) []storage.Tuple {
	n := rng.Intn(5)
	if n == 0 {
		return nil
	}
	arity := 1 + rng.Intn(4)
	out := make([]storage.Tuple, n)
	for i := range out {
		t := make(storage.Tuple, arity)
		for j := range t {
			t[j] = randomValue(rng)
		}
		out[i] = t
	}
	return out
}

func randomEntry(rng *rand.Rand) Entry {
	return randomEntryOf(rng, EntryType(1+rng.Intn(5)))
}

// randomEntryOf draws a random entry of the given type.
func randomEntryOf(rng *rand.Rand, typ EntryType) Entry {
	switch typ {
	case EntryInsert:
		return Entry{Type: EntryInsert, Relation: randomString(rng), Tuples: randomTuples(rng)}
	case EntryDelete:
		return Entry{Type: EntryDelete, Relation: randomString(rng), Tuples: randomTuples(rng)}
	case EntryCommit:
		return Entry{Type: EntryCommit, Commit: CommitMeta{
			Version:   rng.Int63n(1 << 40),
			Timestamp: rng.Int63() - rng.Int63(),
			Message:   randomString(rng),
			Tuples:    rng.Int63n(1 << 40),
			Digest:    randomString(rng),
		}}
	case EntryDefineView:
		e := Entry{Type: EntryDefineView, ViewSrc: randomString(rng)}
		for i := rng.Intn(3); i > 0; i-- {
			c := ViewCite{Query: randomString(rng)}
			for j := 1 + rng.Intn(3); j > 0; j-- {
				c.Fields = append(c.Fields, randomString(rng))
			}
			e.Cites = append(e.Cites, c)
		}
		for i := rng.Intn(3); i > 0; i-- {
			e.Static = append(e.Static, [2]string{randomString(rng), randomString(rng)})
		}
		return e
	default:
		return Entry{Type: EntrySetPolicy, Policy: randomString(rng)}
	}
}

// TestEntryRoundTripQuick is the property test: any entry the writer can
// produce decodes back to an identical entry.
func TestEntryRoundTripQuick(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := randomEntry(rng)
		got, err := DecodeEntry(EncodeEntry(e))
		if err != nil {
			t.Logf("seed %d: decode: %v", seed, err)
			return false
		}
		if !reflect.DeepEqual(e, got) {
			t.Logf("seed %d: round trip mismatch:\n in: %#v\nout: %#v", seed, e, got)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestDecodeEntryRejectsDamage flips every byte of an encoded entry and
// requires decode to either fail with ErrCorrupt or return cleanly —
// never panic (checksums catch damage at the framing layer; this guards
// the layer below it).
func TestDecodeEntryRejectsDamage(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		payload := EncodeEntry(randomEntry(rng))
		for i := range payload {
			mut := append([]byte(nil), payload...)
			mut[i] ^= 0x5a
			if _, err := DecodeEntry(mut); err != nil && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("trial %d byte %d: error does not wrap ErrCorrupt: %v", trial, i, err)
			}
		}
		for cut := 0; cut < len(payload); cut++ {
			if _, err := DecodeEntry(payload[:cut]); err != nil && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("trial %d cut %d: error does not wrap ErrCorrupt: %v", trial, cut, err)
			}
		}
	}
}

func testEntries(n int) []Entry {
	rng := rand.New(rand.NewSource(42))
	out := make([]Entry, n)
	for i := range out {
		out[i] = randomEntry(rng)
	}
	return out
}

func appendAll(t *testing.T, l *Log, entries []Entry) {
	t.Helper()
	for _, e := range entries {
		if _, err := l.Append(e, e.Type == EntryCommit); err != nil {
			t.Fatal(err)
		}
	}
}

func replayAll(t *testing.T, dir string, from uint64) ([]Entry, uint64) {
	t.Helper()
	var got []Entry
	next, err := Replay(dir, from, func(lsn uint64, e Entry) error {
		got = append(got, e)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return got, next
}

func TestLogAppendReplay(t *testing.T) {
	dir := t.TempDir()
	entries := testEntries(100)
	l, err := OpenLog(dir, 0, LogOptions{Fsync: FsyncOnCommit})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, entries)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, next := replayAll(t, dir, 0)
	if next != uint64(len(entries)) {
		t.Fatalf("next = %d, want %d", next, len(entries))
	}
	if !reflect.DeepEqual(entries, got) {
		t.Fatal("replay does not reproduce appended entries")
	}
}

func TestLogSegmentsRollAndStayContiguous(t *testing.T) {
	dir := t.TempDir()
	entries := testEntries(200)
	l, err := OpenLog(dir, 0, LogOptions{SegmentBytes: 256}) // tiny: force many rolls
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, entries)
	if s := l.Stats(); s.Segments < 3 {
		t.Fatalf("expected several segments, got %d", s.Segments)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, _ := replayAll(t, dir, 0)
	if !reflect.DeepEqual(entries, got) {
		t.Fatal("multi-segment replay does not reproduce appended entries")
	}

	// A second writer epoch (crash/restart) continues in a fresh segment.
	more := testEntries(20)
	l2, err := OpenLog(dir, uint64(len(entries)), LogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l2, more)
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	got, next := replayAll(t, dir, 0)
	if want := append(append([]Entry(nil), entries...), more...); !reflect.DeepEqual(want, got) {
		t.Fatal("replay across writer epochs does not reproduce entries")
	}
	if next != uint64(len(entries)+len(more)) {
		t.Fatalf("next = %d", next)
	}
}

// TestLogTruncatedTailIsPrefix truncates the single-segment log at every
// byte boundary: replay must yield a prefix of the appended entries and
// never an error (a torn tail is the expected crash shape).
func TestLogTruncatedTailIsPrefix(t *testing.T) {
	dir := t.TempDir()
	entries := testEntries(30)
	l, err := OpenLog(dir, 0, LogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, entries)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSeqFiles(dir, segPrefix, segSuffix)
	if err != nil || len(segs) != 1 {
		t.Fatalf("want 1 segment, got %d (err %v)", len(segs), err)
	}
	full, err := os.ReadFile(segs[0].path)
	if err != nil {
		t.Fatal(err)
	}
	prev := -1
	for cut := 0; cut <= len(full); cut++ {
		if err := os.WriteFile(segs[0].path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		var got []Entry
		if _, err := Replay(dir, 0, func(_ uint64, e Entry) error { got = append(got, e); return nil }); err != nil {
			t.Fatalf("cut %d: replay error on torn tail: %v", cut, err)
		}
		if len(got) > len(entries) {
			t.Fatalf("cut %d: replay yielded %d entries from %d", cut, len(got), len(entries))
		}
		for i := range got {
			if !reflect.DeepEqual(entries[i], got[i]) {
				t.Fatalf("cut %d: entry %d differs", cut, i)
			}
		}
		if len(got) < prev {
			t.Fatalf("cut %d: prefix shrank from %d to %d entries", cut, prev, len(got))
		}
		prev = len(got)
	}
}

// TestLogGapIsCorruption deletes a middle segment: replay must refuse.
func TestLogGapIsCorruption(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir, 0, LogOptions{SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, testEntries(60))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSeqFiles(dir, segPrefix, segSuffix)
	if err != nil || len(segs) < 3 {
		t.Fatalf("want >= 3 segments, got %d (err %v)", len(segs), err)
	}
	if err := os.Remove(segs[1].path); err != nil {
		t.Fatal(err)
	}
	_, err = Replay(dir, 0, func(uint64, Entry) error { return nil })
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("replay over a gap: err = %v, want ErrCorrupt", err)
	}
}

// TestLogMidSegmentDamageIsCorruption flips a byte early in the first of
// several segments: the entries after it cannot be a clean prefix, so
// replay must report corruption rather than resynchronize.
func TestLogMidSegmentDamageIsCorruption(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir, 0, LogOptions{SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, testEntries(60))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSeqFiles(dir, segPrefix, segSuffix)
	if err != nil || len(segs) < 2 {
		t.Fatalf("want >= 2 segments, got %d (err %v)", len(segs), err)
	}
	data, err := os.ReadFile(segs[0].path)
	if err != nil {
		t.Fatal(err)
	}
	data[recordHeader] ^= 0xff // first payload byte of the first record
	if err := os.WriteFile(segs[0].path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Replay(dir, 0, func(uint64, Entry) error { return nil })
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("replay over damage: err = %v, want ErrCorrupt", err)
	}
}

func TestLogCheckpointedTruncates(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir, 0, LogOptions{SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	entries := testEntries(60)
	appendAll(t, l, entries)
	watermark := l.Next()
	if err := WriteCheckpoint(dir, &Checkpoint{Watermark: watermark}); err != nil {
		t.Fatal(err)
	}
	if err := l.Checkpointed(watermark); err != nil {
		t.Fatal(err)
	}
	if s := l.Stats(); s.Segments != 1 || s.BytesSinceCheckpoint != 0 {
		t.Fatalf("after checkpoint: %+v", s)
	}
	more := testEntries(10)
	appendAll(t, l, more)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, next := replayAll(t, dir, watermark)
	if !reflect.DeepEqual(more, got) {
		t.Fatal("post-checkpoint replay does not reproduce the tail")
	}
	if next != watermark+uint64(len(more)) {
		t.Fatalf("next = %d", next)
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := &Checkpoint{
		Watermark: 12345,
		Entries: []Entry{
			{Type: EntrySetPolicy, Policy: "maxcoverage"},
			{Type: EntryDefineView, ViewSrc: "lambda FID. V1(FID, X) :- R(FID, X)",
				Cites:  []ViewCite{{Query: "CV(FID) :- S(FID)", Fields: []string{"identifier"}}},
				Static: [][2]string{{"database", "GtoPdb"}}},
			{Type: EntryInsert, Relation: "R", Tuples: randomTuples(rng)},
			{Type: EntryCommit, Commit: CommitMeta{Version: 1, Timestamp: 99, Message: "v1", Tuples: 2, Digest: "abc"}},
			{Type: EntryDelete, Relation: "R", Tuples: randomTuples(rng)},
			{Type: EntryCommit, Commit: CommitMeta{Version: 2, Timestamp: 100, Message: "v2", Tuples: 1, Digest: "def"}},
			{Type: EntryInsert, Relation: "R", Tuples: randomTuples(rng)},
		},
	}
	got, err := DecodeCheckpoint(EncodeCheckpoint(c))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(c, got) {
		t.Fatalf("checkpoint round trip mismatch:\n in: %#v\nout: %#v", c, got)
	}

	dir := t.TempDir()
	if err := WriteCheckpoint(dir, c); err != nil {
		t.Fatal(err)
	}
	got, err = LoadCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(c, got) {
		t.Fatal("checkpoint file round trip mismatch")
	}

	// A damaged newest checkpoint falls back to the older one.
	newer := &Checkpoint{Watermark: 99999, Entries: []Entry{{Type: EntrySetPolicy, Policy: "minsize"}}}
	if err := WriteCheckpoint(dir, newer); err != nil {
		t.Fatal(err)
	}
	files, err := listSeqFiles(dir, ckptPrefix, ckptSuffix)
	if err != nil || len(files) != 2 {
		t.Fatalf("want 2 checkpoint files, got %d (err %v)", len(files), err)
	}
	raw, err := os.ReadFile(files[1].path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xff
	if err := os.WriteFile(files[1].path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err = LoadCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Watermark != c.Watermark {
		t.Fatalf("fallback loaded watermark %d, want %d", got.Watermark, c.Watermark)
	}
}

func TestManifestRoundTrip(t *testing.T) {
	s := schema.New()
	s.MustAdd(schema.MustRelation("Family", []schema.Attribute{
		{Name: "FID", Kind: value.KindInt},
		{Name: "FName", Kind: value.KindString},
		{Name: "When", Kind: value.KindTime},
		{Name: "Score", Kind: value.KindFloat},
	}, "FID"))
	s.MustAdd(schema.MustRelation("Committee", []schema.Attribute{
		{Name: "FID", Kind: value.KindInt},
		{Name: "PName", Kind: value.KindString},
	}))
	dir := filepath.Join(t.TempDir(), "data")
	if Initialized(dir) {
		t.Fatal("fresh dir reports initialized")
	}
	if err := WriteManifest(dir, s); err != nil {
		t.Fatal(err)
	}
	if !Initialized(dir) {
		t.Fatal("dir does not report initialized")
	}
	if err := WriteManifest(dir, s); err == nil {
		t.Fatal("re-initializing must fail")
	}
	got, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != s.String() {
		t.Fatalf("manifest round trip:\n in: %s\nout: %s", s, got)
	}
}

// TestLogFsyncModes exercises the always path and the interval syncer
// (background goroutine, exercised under -race): appends under each
// policy replay identically.
func TestLogFsyncModes(t *testing.T) {
	for _, mode := range []FsyncPolicy{FsyncAlways, FsyncInterval} {
		t.Run(mode.String(), func(t *testing.T) {
			dir := t.TempDir()
			l, err := OpenLog(dir, 0, LogOptions{Fsync: mode, SyncInterval: time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			entries := testEntries(40)
			var wg sync.WaitGroup
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := w; i < len(entries); i += 4 {
						if _, err := l.Append(entries[i], false); err != nil {
							t.Error(err)
						}
					}
				}(w)
			}
			wg.Wait()
			if mode == FsyncInterval {
				time.Sleep(5 * time.Millisecond) // let the ticker sync at least once
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			got, next := replayAll(t, dir, 0)
			if next != uint64(len(entries)) || len(got) != len(entries) {
				t.Fatalf("replayed %d entries, next %d", len(got), next)
			}
		})
	}
}

func TestParseFsyncPolicy(t *testing.T) {
	for in, want := range map[string]FsyncPolicy{
		"always": FsyncAlways, "on-commit": FsyncOnCommit, "interval": FsyncInterval, "": FsyncOnCommit,
	} {
		got, err := ParseFsyncPolicy(in)
		if err != nil || got != want {
			t.Errorf("ParseFsyncPolicy(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseFsyncPolicy("bogus"); err == nil {
		t.Error("bogus policy accepted")
	}
	var zero FsyncPolicy
	if zero != FsyncOnCommit {
		t.Error("zero FsyncPolicy is not the documented on-commit default")
	}
}

// TestLogSecondWriterRefused: the writer flock admits one live writer
// per directory — a second would truncate the active segment and
// double-assign LSNs.
func TestLogSecondWriterRefused(t *testing.T) {
	dir := t.TempDir()
	l1, err := OpenLog(dir, 0, LogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenLog(dir, 0, LogOptions{}); err == nil {
		t.Fatal("second live writer admitted")
	}
	if err := l1.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := OpenLog(dir, 0, LogOptions{})
	if err != nil {
		t.Fatalf("reopen after close refused: %v", err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestLogOversizedEntryRefused: an entry the reader's record bound would
// reject must be refused at append time, not journaled unreadably.
func TestLogOversizedEntryRefused(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir, 0, LogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	huge := Entry{Type: EntrySetPolicy, Policy: string(make([]byte, maxBlob+1))}
	if _, err := l.Append(huge, false); err == nil {
		t.Fatal("oversized entry journaled")
	}
	// The log stays usable and the refused entry left no bytes behind.
	if _, err := l.Append(Entry{Type: EntrySetPolicy, Policy: "minsize"}, true); err != nil {
		t.Fatal(err)
	}
	got, next := replayAll(t, dir, 0)
	if next != 1 || len(got) != 1 || got[0].Policy != "minsize" {
		t.Fatalf("replay after refusal: %d entries, next %d", len(got), next)
	}
}
