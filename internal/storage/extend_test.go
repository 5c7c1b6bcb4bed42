package storage

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/value"
)

// sameBits reports whether two values are the same bit for bit: a float
// by its bit pattern, so +0 and -0 differ and a NaN equals its own
// payload.
func sameBits(a, b value.Value) bool {
	if a.Kind() == value.KindFloat && b.Kind() == value.KindFloat {
		return math.Float64bits(a.FloatVal()) == math.Float64bits(b.FloatVal())
	}
	return a == b
}

// checkColumn compares column col of blk with a from-scratch encode of
// its rows: values bit for bit, hashes, codes, postings, DistinctCount,
// and Code for every value and for the absent probes.
func checkColumn(t *testing.T, blk *ColBlock, col int, absent []value.Value) {
	t.Helper()
	got := blk.Column(col)
	want := &Column{codes: make([]int32, len(blk.rows))}
	want.valueDict = encodeColumn(blk.rows, col, want.codes)
	want.post()
	if !slices.EqualFunc(got.vals, want.vals, sameBits) {
		t.Fatalf("column %d: dictionary %v, from scratch %v", col, got.vals, want.vals)
	}
	if !slices.Equal(got.hashes, want.hashes) || !slices.Equal(got.codes, want.codes) {
		t.Fatalf("column %d: hashes or codes differ from a from-scratch encode", col)
	}
	if !slices.Equal(got.postStart, want.postStart) || !slices.Equal(got.postRows, want.postRows) {
		t.Fatalf("column %d: postings differ from a from-scratch encode", col)
	}
	if d := blk.DistinctCount(col); d != len(want.vals) {
		t.Fatalf("column %d: DistinctCount %d, from scratch %d", col, d, len(want.vals))
	}
	probes := append(slices.Clone(want.vals), absent...)
	for _, row := range blk.rows {
		probes = append(probes, row[col])
	}
	for _, v := range probes {
		gc, gok := got.Code(v)
		wc, wok := want.Code(v)
		if gc != wc || gok != wok {
			t.Fatalf("column %d: Code(%v) = %d, %v; from scratch %d, %v", col, v, gc, gok, wc, wok)
		}
	}
}

// TestExtendedColumnMatchesEncode: over random histories of appends,
// deletes and compactions, with repeated and new values, NaN payloads,
// ±0 and strings, every snapshot's columns, read in random order so that
// some extend their predecessor's and some do not, equal a from-scratch
// encode of the same rows; so do they after their successors extended
// them, and after concurrent readers raced the same columns.
func TestExtendedColumnMatchesEncode(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	floats := []value.Value{value.Float(0), negZero, nanA, nanB, value.Float(1), value.Float(1.5)}
	strs := []value.Value{value.String("a"), value.String(""), value.String("1")}
	// Lookalikes across kinds, and values no history holds.
	absent := []value.Value{value.Int(1), value.Float(1), value.String("absent"), value.Int(-7), value.Float(-2)}
	before := ColumnarUsage()
	fresh := 0
	draw := func() Tuple {
		fresh++
		t := Tuple{value.Int(int64(rng.Intn(4))), floats[rng.Intn(len(floats))], strs[rng.Intn(len(strs))]}
		switch rng.Intn(4) {
		case 0:
			t[0] = value.Int(int64(100 + fresh))
		case 1:
			t[1] = value.Float(float64(fresh) / 4)
		case 2:
			t[2] = value.String(fmt.Sprintf("s%d", fresh))
		}
		return t
	}
	for round := range 60 {
		r := NewRelation(propSchema())
		var snaps []*Relation
		read := func() {
			s := snaps[len(snaps)-1-min(rng.Intn(3), len(snaps)-1)]
			col := rng.Intn(3)
			checkColumn(t, s.ColumnarBlock(), col, absent)
		}
		for range 40 {
			switch op := rng.Intn(10); {
			case op < 8:
				batch := make([]Tuple, 1+rng.Intn(4))
				for i := range batch {
					batch[i] = draw()
				}
				if _, err := r.InsertBatch(batch); err != nil {
					t.Fatal(err)
				}
			case op < 9:
				if live := r.Tuples(); len(live) > 0 {
					r.Delete(live[rng.Intn(len(live))])
				}
			default:
				r.Compact()
			}
			snaps = append(snaps, r.Snapshot())
			for range 1 + rng.Intn(2) {
				read()
			}
		}
		// Concurrent readers race the encodes of the round's last
		// snapshots, whose predecessors' tails they may claim.
		var wg sync.WaitGroup
		for g := range 4 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range 6 {
					s := snaps[len(snaps)-1-(g+i)%min(6, len(snaps))]
					s.ColumnarBlock().Column((g + i) % 3)
				}
			}()
		}
		wg.Wait()
		for i, s := range snaps {
			blk := s.ColumnarBlock()
			for col := range 3 {
				if blk.cols[col].Load() != nil {
					checkColumn(t, blk, col, absent)
				}
			}
			if t.Failed() {
				t.Fatalf("round %d: snapshot %d of %d", round, i, len(snaps))
			}
		}
	}
	after := ColumnarUsage()
	encoded, extended := after.ColumnsEncoded-before.ColumnsEncoded, after.ColumnsExtended-before.ColumnsExtended
	t.Logf("%d columns encoded, %d by extension", encoded, extended)
	if extended < 200 || encoded-extended < 200 {
		t.Errorf("%d of %d columns extended a predecessor's; want at least 200 that did and 200 that did not", extended, encoded)
	}
}

// TestRowsAscendExtendsPredecessor: over random append histories, mostly
// ascending, with NaN payloads, ±0 ties at the seam between a snapshot's
// rows and the next one's, and deletes in between, each snapshot's
// RowsAscend, asked of some snapshots and not others so that some
// predecessors have an answer and some do not, agrees with the all-pairs
// oracle. A delete cuts the link: the next snapshot has no predecessor.
func TestRowsAscendExtendsPredecessor(t *testing.T) {
	rng := rand.New(rand.NewSource(3939))
	linked, cut := 0, 0
	for round := range 200 {
		r := NewRelation(propSchema())
		k := int64(0)
		var last Tuple
		for range 20 {
			deleted := false
			switch op := rng.Intn(20); {
			case op < 19:
				batch := make([]Tuple, 1+rng.Intn(3))
				for i := range batch {
					f := value.Float(0)
					switch rng.Intn(8) {
					case 0:
						f = negZero // ties (k, 0, s) when k does not move
					case 1:
						f = nanA
					}
					if rng.Intn(6) > 0 {
						k++
					} else if rng.Intn(2) == 0 {
						k--
					}
					batch[i] = Tuple{value.Int(k), f, value.String("s")}
				}
				if last != nil && rng.Intn(4) == 0 {
					// A tie across the seam: the last row with its zero's
					// sign flipped.
					batch[0] = Tuple{last[0], negZero, last[2]}
					if math.Signbit(last[1].FloatVal()) {
						batch[0][1] = value.Float(0)
					}
				}
				if _, err := r.InsertBatch(batch); err != nil {
					t.Fatal(err)
				}
				last = batch[len(batch)-1]
			default:
				if live := r.Tuples(); len(live) > 0 {
					r.Delete(live[rng.Intn(len(live))])
					deleted = true
				}
			}
			prev := r.snap
			s := r.Snapshot()
			if s == prev {
				continue
			}
			if p := s.prev.Value(); p != nil {
				linked++
				if p != prev {
					t.Fatalf("round %d: the snapshot's predecessor is not the source's previous snapshot", round)
				}
			} else if deleted {
				cut++
			}
			if deleted && s.prev.Value() != nil {
				t.Fatalf("round %d: a snapshot after a delete links its predecessor", round)
			}
			if rng.Intn(3) > 0 {
				if got, want := s.RowsAscend(), ascendsAllPairs(s); got != want {
					t.Fatalf("round %d: RowsAscend = %v, all pairs %v (rows %v)", round, got, want, s.Tuples())
				}
			}
		}
	}
	if linked < 1000 || cut < 50 {
		t.Errorf("%d snapshots linked, %d cut by a delete; want at least 1000 and 50", linked, cut)
	}
}
