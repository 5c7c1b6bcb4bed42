package fixity

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/schema"
	"repro/internal/storage"
	"repro/internal/value"
)

// referenceDatabaseDigest is DatabaseDigest as it was before relations
// streamed their rows in a memoized order: each relation's live tuples
// copied and sorted with sort.Slice on every call.
func referenceDatabaseDigest(db *storage.Database) string {
	h := sha256.New()
	var buf []byte
	for _, name := range db.Schema().Names() {
		h.Write([]byte(name))
		h.Write([]byte{0xff})
		ts := db.Relation(name).Tuples()
		sort.Slice(ts, func(i, j int) bool { return ts[i].Compare(ts[j]) < 0 })
		for _, t := range ts {
			buf = append(t.AppendKey(buf[:0]), 0)
			h.Write(buf)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// digestSchema has a relation whose rows arrive ascending, one whose
// rows arrive in random order, and a one-column Float relation fed zeros
// of both signs, NaNs and a few ordinary floats.
func digestSchema() *schema.Schema {
	s := schema.New()
	s.MustAdd(schema.MustRelation("Up", []schema.Attribute{
		{Name: "K", Kind: value.KindInt},
		{Name: "S", Kind: value.KindString},
	}))
	s.MustAdd(schema.MustRelation("Mixed", []schema.Attribute{
		{Name: "K", Kind: value.KindInt},
		{Name: "F", Kind: value.KindFloat},
	}))
	s.MustAdd(schema.MustRelation("F", []schema.Attribute{
		{Name: "X", Kind: value.KindFloat},
	}))
	return s
}

// TestDatabaseDigestMatchesReference grows random databases through
// inserts, deletes and snapshots, and digests every head and snapshot
// (each snapshot twice, once filling its order memo and once reading it)
// against referenceDatabaseDigest. The float rows include +0, -0 and NaNs
// in random insertion orders, where Tuple.Compare ties or is
// intransitive, so the memoized order must repeat sort.Slice's own
// choices to match.
func TestDatabaseDigestMatchesReference(t *testing.T) {
	floats := []float64{0, math.Copysign(0, -1), math.NaN(), math.Float64frombits(0x7ff8000000000001), 1.5, -2.5, math.Inf(1)}
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db := storage.NewDatabase(digestSchema())
		up := 0
		var snaps []*storage.Database
		for step := 0; step < 40; step++ {
			for range 1 + rng.Intn(6) {
				up++
				db.Insert("Up", value.Int(int64(up)), value.String(fmt.Sprintf("u%03d", up)))
				db.Insert("Mixed", value.Int(int64(rng.Intn(20))), value.Float(floats[rng.Intn(len(floats))]))
				db.Insert("F", value.Float(floats[rng.Intn(len(floats))]))
			}
			if rng.Intn(4) == 0 {
				db.Delete("Mixed", value.Int(int64(rng.Intn(20))), value.Float(floats[rng.Intn(len(floats))]))
				db.Delete("F", value.Float(floats[rng.Intn(len(floats))]))
			}
			if got, want := DatabaseDigest(db), referenceDatabaseDigest(db); got != want {
				t.Fatalf("seed %d step %d: head digest %s, reference %s", seed, step, got, want)
			}
			snap := db.Snapshot()
			snaps = append(snaps, snap)
			for _, pass := range []string{"first", "second"} {
				if got, want := DatabaseDigest(snap), referenceDatabaseDigest(snap); got != want {
					t.Fatalf("seed %d step %d: snapshot digest (%s pass) %s, reference %s", seed, step, pass, got, want)
				}
			}
		}
		// Later writes never move an earlier snapshot's digest.
		for i, snap := range snaps {
			if got, want := DatabaseDigest(snap), referenceDatabaseDigest(snap); got != want {
				t.Fatalf("seed %d: snapshot %d digests %s after later writes, reference %s", seed, i, got, want)
			}
		}
	}
}

// TestDigestOfUnchangedSnapshotAllocatesO1: once a snapshot's relations
// keep their canonical order, digesting it again allocates a constant
// number of objects and bytes, whatever its size: no relation is copied
// to be sorted.
func TestDigestOfUnchangedSnapshotAllocatesO1(t *testing.T) {
	measure := func(rows int) (objects float64, bytes uint64) {
		db := storage.NewDatabase(digestSchema())
		for i := range rows {
			// Mixed's keys descend, so it sorts; Up ascends, so it does not.
			db.Insert("Up", value.Int(int64(i)), value.String(fmt.Sprintf("u%05d", i)))
			db.Insert("Mixed", value.Int(int64(rows-i)), value.Float(float64(i)/7))
		}
		snap := db.Snapshot()
		want := DatabaseDigest(snap)
		digest := func() {
			if got := DatabaseDigest(snap); got != want {
				t.Fatalf("digest moved: %s, want %s", got, want)
			}
		}
		objects = testing.AllocsPerRun(10, digest)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range 10 {
			digest()
		}
		runtime.ReadMemStats(&after)
		return objects, (after.TotalAlloc - before.TotalAlloc) / 10
	}
	smallN, smallB := measure(100)
	largeN, largeB := measure(10_000)
	t.Logf("a second digest allocates %.0f objects, %d B at 100 rows per relation; %.0f, %d B at 10,000", smallN, smallB, largeN, largeB)
	if largeN != smallN || largeN > 8 {
		t.Errorf("a second digest allocates %.0f objects at 100 rows and %.0f at 10,000; want the same, at most 8", smallN, largeN)
	}
	if largeB > smallB+1024 {
		t.Errorf("a second digest allocates %d B at 100 rows and %d B at 10,000; want no growth with the rows", smallB, largeB)
	}
}

// TestPinnedCitationStringMatchesSprintf: String renders byte for byte
// as the fmt.Sprintf form it replaced, over query texts with quotes,
// backslashes, non-ASCII runes, control characters and invalid UTF-8.
func TestPinnedCitationStringMatchesSprintf(t *testing.T) {
	reference := func(p PinnedCitation) string {
		return fmt.Sprintf("query=%q version=%d retrieved=%s sha256=%s",
			p.QueryText, p.Version, p.Timestamp.UTC().Format(time.RFC3339), p.Digest)
	}
	texts := []string{
		"",
		`Q(FName) :- Family(FID, FName, Desc), FamilyIntro(FID, Text)`,
		`Q(X) :- R(X, 'it''s "quoted"')`,
		`Q(X) :- R(X, 'back\slash')`,
		"Q(X) :- R(X, 'ünïcödé — 日本語 🙂')",
		"Q(X) :- R(X, 'tab\there\nnewline\x00nul\x1funit\x7fdel')",
		"Q(X) :- R(X, '\xff\xfeinvalid')",
		"Q(X) :- R(X, '\u00a0\u2028\ufeff')",
		strings.Repeat("Q(X) :- R(X, 'long'), ", 40),
	}
	times := []time.Time{
		time.Date(2017, 5, 14, 9, 0, 0, 123456789, time.UTC),
		time.Date(2026, 1, 2, 3, 4, 5, 0, time.FixedZone("CEST", 2*3600)),
		time.Unix(0, 0),
		{},
	}
	for i, text := range texts {
		for j, ts := range times {
			p := PinnedCitation{
				QueryText: text,
				Version:   Version([]int{1, 0, -3, 286, math.MaxInt}[(i+j)%5]),
				Timestamp: ts,
				Digest:    Digest([]storage.Tuple{{value.Int(int64(i))}}),
				Tuples:    i,
			}
			if got, want := p.String(), reference(p); got != want {
				t.Errorf("String() = %q\nwant       %q", got, want)
			}
		}
	}
}
