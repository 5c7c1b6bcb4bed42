package storage

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/schema"
	"repro/internal/value"
)

// TestSignedZeroAndNaNPathsAgree: a float column holding 0, -0 and two
// NaNs answers every probe and distinct count the same way on the scan
// path, the index path and the columnar block, and that way is ==: a
// zero probe finds both zeros, a NaN probe finds nothing, the zeros count
// once and each NaN counts on its own.
func TestSignedZeroAndNaNPathsAgree(t *testing.T) {
	rs := schema.MustRelation("Z", []schema.Attribute{
		{Name: "id", Kind: value.KindInt},
		{Name: "f", Kind: value.KindFloat},
	})
	load := func() *Relation {
		r := NewRelation(rs)
		for i, f := range []value.Value{value.Float(0), negZero, nanA, nanB, value.Float(1), negZero} {
			r.MustInsert(value.Int(int64(i)), f)
		}
		return r
	}
	scan, indexed, columnar := load(), load(), load().Snapshot()
	indexed.BuildIndex(1)
	blk := columnar.ColumnarBlock()
	if blk == nil {
		t.Fatal("no columnar block")
	}
	ids := func(ts []Tuple) string {
		out := make([]int64, len(ts))
		for i, tu := range ts {
			out[i] = tu[0].IntVal()
		}
		return fmt.Sprint(out)
	}
	for _, probe := range []struct {
		v    value.Value
		want string
	}{
		{value.Float(0), "[0 1 5]"},
		{negZero, "[0 1 5]"},
		{nanA, "[]"},
		{nanB, "[]"},
		{value.Float(1), "[4]"},
		{value.Float(2), "[]"},
	} {
		var viaBlock []Tuple
		if code, ok := blk.Code(1, probe.v); ok {
			for _, row := range blk.Postings(1, code) {
				viaBlock = append(viaBlock, blk.Row(row))
			}
		}
		got := map[string]string{
			"scan":     ids(scan.Lookup(1, probe.v)),
			"index":    ids(indexed.Lookup(1, probe.v)),
			"columnar": ids(viaBlock),
		}
		for path, g := range got {
			if g != probe.want {
				t.Errorf("probe %v on the %s path: rows %s, want %s", probe.v, path, g, probe.want)
			}
		}
	}
	for path, d := range map[string]int{
		"scan":     scan.DistinctCount(1),
		"index":    indexed.DistinctCount(1),
		"columnar": columnar.DistinctCount(1),
		"block":    blk.DistinctCount(1),
	} {
		if d != 4 {
			t.Errorf("DistinctCount on the %s path = %d, want 4 (one zero, two NaNs, one)", path, d)
		}
	}
}

// TestIndexedAppendLookupAllocsZero: a warm indexed probe into a reused
// buffer allocates nothing — the dictionary probe and the chain walk
// read flat arrays.
func TestIndexedAppendLookupAllocsZero(t *testing.T) {
	r := benchRelation(2000)
	r.BuildIndex(0)
	r.BuildIndex(1)
	buf := make([]Tuple, 0, 256)
	k := 0
	allocs := testing.AllocsPerRun(200, func() {
		k = (k + 37) % 2000
		buf = r.AppendLookup(buf[:0], 0, value.Int(int64(k)))
		buf = r.AppendLookup(buf[:0], 1, value.String("s3"))
	})
	if allocs != 0 {
		t.Fatalf("warm indexed AppendLookup: %.1f allocs/run, want 0", allocs)
	}
	if len(buf) != 2000/16 {
		t.Fatalf("chain walk returned %d rows, want %d", len(buf), 2000/16)
	}
}

// TestDictFootprintCountsRenderings: a dictionary's footprint is
// Σ(32 + len(String())) over its values plus the hash and table terms,
// for all four kinds (the zeros share a code, each NaN has its own), and
// measuring it allocates nothing.
func TestDictFootprintCountsRenderings(t *testing.T) {
	var d valueDict
	for _, v := range []value.Value{
		value.String("Calcitonin receptors"), value.String(""), value.Int(7), value.Int(-123456789),
		value.Float(0), negZero, nanA, nanB, value.Float(1e300), value.Float(-1.5e-300),
		value.Float(math.Inf(1)), value.Time(time.Date(2017, 5, 14, 9, 0, 0, 0, time.UTC)),
		value.Time(time.Date(1999, 1, 2, 3, 4, 5, 678, time.UTC)),
	} {
		d.codeOrAdd(v)
	}
	want := uint64(0)
	for _, v := range d.vals {
		want += 32 + uint64(len(v.String()))
	}
	want += 8*uint64(len(d.hashes)) + 4*uint64(len(d.table))
	if got := d.footprint(); got != want {
		t.Fatalf("footprint = %d, want %d", got, want)
	}
	if allocs := testing.AllocsPerRun(100, func() { d.footprint() }); allocs != 0 {
		t.Fatalf("footprint: %.1f allocs/run, want 0", allocs)
	}
}

// TestEncodeColumnMatchesCodeOrAdd: the bulk encoder builds exactly the
// dictionary codeOrAdd builds row by row — the same values in the same
// order, the same hashes, the same code for every row and the same
// answer to every lookup — over random columns with holes, every value
// kind, both zeros and several NaNs, and sizes its values exactly.
func TestEncodeColumnMatchesCodeOrAdd(t *testing.T) {
	pool := []value.Value{
		value.Float(0), negZero, nanA, nanB, value.Float(math.NaN()), value.Float(1), value.Float(math.Inf(-1)),
		value.Int(0), value.Int(1), value.Int(-1), value.String(""), value.String("1"), value.String("0"),
		value.Time(time.Date(2017, 5, 14, 9, 0, 0, 0, time.UTC)), value.Time(time.Unix(0, 0)),
	}
	same := func(a, b value.Value) bool {
		if a.Kind() == value.KindFloat && b.Kind() == value.KindFloat {
			return math.Float64bits(a.FloatVal()) == math.Float64bits(b.FloatVal())
		}
		return a == b
	}
	rng := rand.New(rand.NewSource(17))
	for iter := 0; iter < 300; iter++ {
		n := rng.Intn(400)
		// Some columns draw from the fixed pool, others also from a range
		// of ints wide enough to grow the probe table several times.
		spread := 0
		if iter%2 == 1 {
			spread = 1 + rng.Intn(1000)
		}
		holes := rng.Float64() * 0.3
		rows := make([]Tuple, n)
		for r := range rows {
			if rng.Float64() < holes {
				continue
			}
			v := pool[rng.Intn(len(pool))]
			if spread > 0 && rng.Intn(2) == 0 {
				v = value.Int(int64(100 + rng.Intn(spread)))
			}
			rows[r] = Tuple{value.Int(int64(r)), v}
		}

		var want valueDict
		wantCodes := make([]int32, n)
		for r, tu := range rows {
			wantCodes[r] = -1
			if tu != nil {
				wantCodes[r] = int32(want.codeOrAdd(tu[1]))
			}
		}
		codes := make([]int32, n)
		got := encodeColumn(rows, 1, codes)

		if !slices.Equal(codes, wantCodes) {
			t.Fatalf("iter %d: row codes %v, want %v", iter, codes, wantCodes)
		}
		if len(got.vals) != len(want.vals) || len(got.vals) != cap(got.vals) {
			t.Fatalf("iter %d: %d values (cap %d), want %d at exact capacity", iter, len(got.vals), cap(got.vals), len(want.vals))
		}
		for c := range want.vals {
			if !same(got.vals[c], want.vals[c]) {
				t.Fatalf("iter %d: code %d holds %v, want %v", iter, c, got.vals[c], want.vals[c])
			}
		}
		if !slices.Equal(got.hashes, want.hashes) {
			t.Fatalf("iter %d: hashes differ", iter)
		}
		probes := append([]value.Value{value.Int(-7), value.Int(100), value.String("absent")}, pool...)
		for _, tu := range rows {
			if tu != nil {
				probes = append(probes, tu[1])
			}
		}
		for _, v := range probes {
			gc, gok := got.code(v)
			wc, wok := want.code(v)
			if gok != wok || (wok && gc != wc) {
				t.Fatalf("iter %d: code(%v) = %d, %v; want %d, %v", iter, v, gc, gok, wc, wok)
			}
		}
	}
}
