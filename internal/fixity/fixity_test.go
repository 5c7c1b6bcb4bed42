package fixity

import (
	"strings"
	"testing"
	"time"

	"repro/internal/cq"
	"repro/internal/schema"
	"repro/internal/storage"
	"repro/internal/value"
)

func testSchema(t *testing.T) *schema.Schema {
	t.Helper()
	s := schema.New()
	s.MustAdd(schema.MustRelation("R", []schema.Attribute{
		{Name: "A", Kind: value.KindInt},
		{Name: "B", Kind: value.KindString},
	}))
	return s
}

// commit seals the head as the next version, with the metadata Next
// stamps, through the store's one commit primitive.
func commit(t *testing.T, st *Store, message string) VersionInfo {
	t.Helper()
	info := st.Next(message)
	if err := st.Commit(info); err != nil {
		t.Fatal(err)
	}
	return info
}

func TestCommitAndAt(t *testing.T) {
	st := NewStore(testSchema(t))
	if st.Latest() != 0 {
		t.Fatal("fresh store has versions")
	}
	if err := st.Head().Insert("R", value.Int(1), value.String("a")); err != nil {
		t.Fatal(err)
	}
	info := commit(t, st, "first")
	if info.Version != 1 || info.Tuples != 1 || info.Message != "first" {
		t.Errorf("info %+v", info)
	}
	if err := st.Head().Insert("R", value.Int(2), value.String("b")); err != nil {
		t.Fatal(err)
	}
	commit(t, st, "second")
	v1, err := st.At(1)
	if err != nil {
		t.Fatal(err)
	}
	if v1.Relation("R").Len() != 1 {
		t.Error("version 1 sees later inserts")
	}
	v2, err := st.At(2)
	if err != nil {
		t.Fatal(err)
	}
	if v2.Relation("R").Len() != 2 {
		t.Error("version 2 missing data")
	}
	if _, err := st.At(3); err == nil {
		t.Error("absent version returned")
	}
	if _, err := st.At(0); err == nil {
		t.Error("version 0 returned")
	}
}

func TestSnapshotImmuneToHeadChanges(t *testing.T) {
	st := NewStore(testSchema(t))
	if err := st.Head().Insert("R", value.Int(1), value.String("a")); err != nil {
		t.Fatal(err)
	}
	commit(t, st, "v1")
	if _, err := st.Head().Delete("R", value.Int(1), value.String("a")); err != nil {
		t.Fatal(err)
	}
	v1, err := st.At(1)
	if err != nil {
		t.Fatal(err)
	}
	if v1.Relation("R").Len() != 1 {
		t.Error("snapshot affected by head deletion")
	}
}

func TestHistory(t *testing.T) {
	st := NewStore(testSchema(t))
	now := time.Date(2026, 6, 12, 0, 0, 0, 0, time.UTC)
	st.SetClock(func() time.Time { return now })
	commit(t, st, "a")
	commit(t, st, "b")
	h := st.History()
	if len(h) != 2 || h[0].Message != "a" || h[1].Message != "b" {
		t.Errorf("history %+v", h)
	}
	if !h[0].Timestamp.Equal(now) {
		t.Error("clock override ignored")
	}
	if _, err := st.Info(2); err != nil {
		t.Error(err)
	}
	if _, err := st.Info(9); err == nil {
		t.Error("bogus version info returned")
	}
}

func TestDigestProperties(t *testing.T) {
	a := []storage.Tuple{{value.Int(1)}, {value.Int(2)}}
	b := []storage.Tuple{{value.Int(2)}, {value.Int(1)}}
	if Digest(a) != Digest(b) {
		t.Error("digest order-sensitive")
	}
	c := []storage.Tuple{{value.Int(1)}}
	if Digest(a) == Digest(c) {
		t.Error("different results digest equal")
	}
	if Digest(nil) == Digest(c) {
		t.Error("empty result digest collides")
	}
	if len(Digest(nil)) != 64 {
		t.Errorf("digest length %d, want 64 hex chars", len(Digest(nil)))
	}
}

func TestExecuteAndPin(t *testing.T) {
	st := NewStore(testSchema(t))
	if err := st.Head().Insert("R", value.Int(1), value.String("a")); err != nil {
		t.Fatal(err)
	}
	commit(t, st, "v1")
	q := cq.MustParse("Q(A) :- R(A, B)")
	tuples, pin, err := st.Execute(q, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tuples) != 1 {
		t.Fatalf("tuples %v", tuples)
	}
	if pin.Version != 1 || pin.Tuples != 1 {
		t.Errorf("pin %+v", pin)
	}
	if !strings.Contains(pin.String(), "version=1") || !strings.Contains(pin.String(), "sha256=") {
		t.Errorf("pin rendering %q", pin.String())
	}
	if pin.QueryText != q.String() {
		t.Errorf("pin query %q", pin.QueryText)
	}
}

func TestExecuteLatestRequiresCommit(t *testing.T) {
	st := NewStore(testSchema(t))
	if _, _, err := st.ExecuteLatest(cq.MustParse("Q(A) :- R(A, B)")); err == nil {
		t.Error("ExecuteLatest succeeded with no versions")
	}
}

func TestVerifyAfterChange(t *testing.T) {
	st := NewStore(testSchema(t))
	if err := st.Head().Insert("R", value.Int(1), value.String("a")); err != nil {
		t.Fatal(err)
	}
	commit(t, st, "v1")
	q := cq.MustParse("Q(A) :- R(A, B)")
	_, pin, err := st.Execute(q, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Mutate head and commit a new version; the old pin must still verify
	// against its own version.
	if err := st.Head().Insert("R", value.Int(2), value.String("b")); err != nil {
		t.Fatal(err)
	}
	commit(t, st, "v2")
	ok, err := st.Verify(pin)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("pin no longer verifies after head changes")
	}
	// A pin pointing at the new version has a different digest.
	_, pin2, err := st.ExecuteLatest(q)
	if err != nil {
		t.Fatal(err)
	}
	if pin2.Digest == pin.Digest {
		t.Error("digests should differ across versions with different data")
	}
	// Tampered pin fails verification.
	bad := pin
	bad.Digest = pin2.Digest
	ok, err = st.Verify(bad)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("tampered pin verified")
	}
}

func TestVerifyBadQuery(t *testing.T) {
	st := NewStore(testSchema(t))
	commit(t, st, "v1")
	if _, err := st.Verify(PinnedCitation{QueryText: "((("}); err == nil {
		t.Error("unparseable pinned query accepted")
	}
}

func TestPinRoundTripThroughString(t *testing.T) {
	// The pinned query text must re-parse to an equivalent query,
	// including λ-parameters and constants.
	st := NewStore(testSchema(t))
	if err := st.Head().Insert("R", value.Int(1), value.String("it's")); err != nil {
		t.Fatal(err)
	}
	commit(t, st, "v1")
	q := cq.MustParse("Q(A) :- R(A, 'it''s')")
	_, pin, err := st.Execute(q, 1)
	if err != nil {
		t.Fatal(err)
	}
	ok, err := st.Verify(pin)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("pin with quoted constant fails round trip")
	}
}

func TestDatabaseDigest(t *testing.T) {
	st1 := NewStore(testSchema(t))
	st2 := NewStore(testSchema(t))
	// Same contents inserted in different orders digest equal.
	if err := st1.Head().Insert("R", value.Int(1), value.String("a")); err != nil {
		t.Fatal(err)
	}
	if err := st1.Head().Insert("R", value.Int(2), value.String("b")); err != nil {
		t.Fatal(err)
	}
	if err := st2.Head().Insert("R", value.Int(2), value.String("b")); err != nil {
		t.Fatal(err)
	}
	if err := st2.Head().Insert("R", value.Int(1), value.String("a")); err != nil {
		t.Fatal(err)
	}
	d1, d2 := DatabaseDigest(st1.Head()), DatabaseDigest(st2.Head())
	if d1 != d2 {
		t.Fatalf("insertion order changed the digest: %s vs %s", d1, d2)
	}
	if err := st2.Head().Insert("R", value.Int(3), value.String("c")); err != nil {
		t.Fatal(err)
	}
	if DatabaseDigest(st2.Head()) == d1 {
		t.Fatal("different contents digest equal")
	}
}

func TestRestoreCommit(t *testing.T) {
	st := NewStore(testSchema(t))
	if err := st.Head().Insert("R", value.Int(1), value.String("a")); err != nil {
		t.Fatal(err)
	}
	want := VersionInfo{
		Version:   1,
		Timestamp: time.Unix(0, 123456789).UTC(),
		Message:   "restored",
		Tuples:    1,
	}
	if err := st.Commit(want); err != nil {
		t.Fatal(err)
	}
	got, err := st.Info(1)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("restored info %+v, want %+v", got, want)
	}
	db, err := st.At(1)
	if err != nil {
		t.Fatal(err)
	}
	if db.Size() != 1 || !db.Frozen() {
		t.Fatalf("restored snapshot: size %d frozen %v", db.Size(), db.Frozen())
	}

	// Out-of-order versions and tuple-count mismatches are refused.
	if err := st.Commit(VersionInfo{Version: 5, Tuples: 1}); err == nil {
		t.Fatal("out-of-order restore accepted")
	}
	if err := st.Commit(VersionInfo{Version: 2, Tuples: 99}); err == nil {
		t.Fatal("tuple-count mismatch accepted")
	}
	if st.Latest() != 1 {
		t.Fatalf("failed restores changed history: latest %d", st.Latest())
	}

	// Regular commits continue after a restore.
	info := commit(t, st, "v2")
	if info.Version != 2 {
		t.Fatalf("commit after restore got version %d", info.Version)
	}
}
