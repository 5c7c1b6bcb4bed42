package fixity

import (
	"math"
	"testing"
	"time"

	"repro/internal/schema"
	"repro/internal/storage"
	"repro/internal/value"
)

// goldenDB is a fixed two-relation database whose values cover every kind
// and the renderings that are easiest to get wrong: signed zero, NaN,
// infinities, negative and extreme integers, nanosecond times, and
// strings holding quotes, multi-byte runes and the empty string.
func goldenDB(t *testing.T) *storage.Database {
	t.Helper()
	s := schema.New()
	s.MustAdd(schema.MustRelation("M", []schema.Attribute{
		{Name: "I", Kind: value.KindInt},
		{Name: "F", Kind: value.KindFloat},
		{Name: "S", Kind: value.KindString},
		{Name: "T", Kind: value.KindTime},
	}))
	s.MustAdd(schema.MustRelation("A", []schema.Attribute{
		{Name: "K", Kind: value.KindString},
	}))
	db := storage.NewDatabase(s)
	base := time.Date(2017, 5, 14, 9, 0, 0, 123456789, time.UTC)
	for i, f := range []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), 1.5, -2.25e-300} {
		if err := db.Insert("M",
			value.Int(int64(i)*-7919),
			value.Float(f),
			value.String([]string{"", "it's", "ünï", "a b", "x", "1", "0"}[i]),
			value.Time(base.Add(time.Duration(i)*time.Hour+time.Duration(i)))); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Insert("M", value.Int(math.MinInt64), value.Float(1), value.String("min"), value.Time(time.Unix(0, 0))); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"zeta", "alpha", "Beta", ""} {
		if err := db.Insert("A", value.String(k)); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// The hex digests below were computed before the digests stopped building
// one key string per tuple. They pin the canonical rendering: write-ahead
// log entries and pinned citations carry these digests, so any change to
// them would make existing logs and pins unverifiable.
const (
	goldenDatabaseDigest = "33de83c1a27a71d11785c163af8ff66886739eaaf8d1c64280ff072e638a4a34"
	goldenResultDigest   = "5e2661554c72bab96a5ba2b13e8078d897c8a8284b44f33a84b22e4f58d2909e"
)

func TestGoldenDigests(t *testing.T) {
	db := goldenDB(t)
	if got := DatabaseDigest(db); got != goldenDatabaseDigest {
		t.Errorf("DatabaseDigest = %s, want %s", got, goldenDatabaseDigest)
	}
	// A snapshot's rows do not ascend here: its first digest sorts and
	// keeps each relation's canonical order, and its second reads it.
	snap := goldenDB(t).Snapshot()
	for _, pass := range []string{"first", "second"} {
		if got := DatabaseDigest(snap); got != goldenDatabaseDigest {
			t.Errorf("DatabaseDigest of a snapshot, %s pass = %s, want %s", pass, got, goldenDatabaseDigest)
		}
	}
	// A result digest is order-insensitive: feed the tuples unsorted.
	rows := db.Relation("M").Tuples()
	result := append(append([]storage.Tuple{}, rows[3:]...), rows[:3]...)
	if got := Digest(result); got != goldenResultDigest {
		t.Errorf("Digest = %s, want %s", got, goldenResultDigest)
	}
	if got := Digest(nil); got != "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855" {
		t.Errorf("Digest(nil) = %s, want the SHA-256 of nothing", got)
	}
}
