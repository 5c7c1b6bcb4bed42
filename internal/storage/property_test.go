package storage

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/schema"
	"repro/internal/value"
)

// Values that Key equality and == treat differently: the two zeros (one
// Key each, equal under ==), two NaN payloads (one Key, never equal under
// ==), and lookalikes of one another across kinds.
var (
	negZero = value.Float(math.Copysign(0, -1))
	nanA    = value.Float(math.Float64frombits(0x7ff8000000000001))
	nanB    = value.Float(math.Float64frombits(0x7ff80000000abcde))
)

// propPools holds each column's value pool for propSchema.
var propPools = [][]value.Value{
	{value.Int(0), value.Int(1), value.Int(-1)},
	{value.Float(0), negZero, nanA, nanB, value.Float(1), value.Float(math.Inf(1))},
	{value.String("1"), value.String(""), value.String("0")},
}

func propSchema() *schema.Relation {
	return schema.MustRelation("P", []schema.Attribute{
		{Name: "I", Kind: value.KindInt},
		{Name: "F", Kind: value.KindFloat},
		{Name: "S", Kind: value.KindString},
	})
}

func randTuple(rng *rand.Rand) Tuple {
	t := make(Tuple, len(propPools))
	for col, pool := range propPools {
		t[col] = pool[rng.Intn(len(pool))]
	}
	return t
}

// swapNaN returns t with every NaN replaced by the other payload: a
// different bit pattern with the same Key.
func swapNaN(t Tuple) Tuple {
	out := t.Clone()
	for i, v := range out {
		if v.Kind() == value.KindFloat && math.IsNaN(v.FloatVal()) {
			if math.Float64bits(v.FloatVal()) == math.Float64bits(nanA.FloatVal()) {
				out[i] = nanB
			} else {
				out[i] = nanA
			}
		}
	}
	return out
}

func copyOracle(m map[string]Tuple) map[string]Tuple {
	out := make(map[string]Tuple, len(m))
	for k, t := range m {
		out[k] = t
	}
	return out
}

// checkAgainstOracle compares a relation with the Key-keyed oracle: Len,
// Contains (also through the other NaN payload), SortedTuples as a set of
// Keys, every indexed AppendLookup against a filtered scan in row order,
// and DistinctCount against a value set.
func checkAgainstOracle(t *testing.T, where string, r *Relation, oracle map[string]Tuple) {
	t.Helper()
	if r.Len() != len(oracle) {
		t.Fatalf("%s: Len = %d, oracle holds %d", where, r.Len(), len(oracle))
	}
	for k, tu := range oracle {
		if !r.Contains(tu) || !r.Contains(swapNaN(tu)) {
			t.Fatalf("%s: Contains(%q) = false", where, k)
		}
	}
	var got, want []string
	for _, tu := range r.SortedTuples() {
		got = append(got, tu.Key())
	}
	for k := range oracle {
		want = append(want, k)
	}
	slices.Sort(got)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Fatalf("%s: SortedTuples keys %q, oracle %q", where, got, want)
	}
	for col, pool := range propPools {
		if r.HasIndex(col) {
			for _, v := range pool {
				looked := r.AppendLookup(nil, col, v)
				var scanned []Tuple
				r.Scan(func(tu Tuple) bool {
					if tu[col] == v {
						scanned = append(scanned, tu)
					}
					return true
				})
				if len(looked) != len(scanned) {
					t.Fatalf("%s: col %d probe %v: index returned %d rows, scan %d", where, col, v, len(looked), len(scanned))
				}
				for i := range looked {
					if &looked[i][0] != &scanned[i][0] {
						t.Fatalf("%s: col %d probe %v: row %d differs from the scan's (%v vs %v)", where, col, v, i, looked[i], scanned[i])
					}
				}
			}
		}
		seen := make(map[value.Value]struct{})
		for _, tu := range oracle {
			seen[tu[col]] = struct{}{}
		}
		if d := r.DistinctCount(col); d != len(seen) {
			t.Fatalf("%s: DistinctCount(%d) = %d, want %d", where, col, d, len(seen))
		}
	}
}

// TestRelationMatchesKeyOracle runs seeded random mutation sequences —
// Insert, InsertBatch, InsertOwned, Delete, DeleteBatch, Compact, index
// builds and Snapshot — against a map keyed by Tuple.Key. The relation
// must agree with the map after every step, and every snapshot must keep
// agreeing with the map as it stood when the snapshot was taken.
func TestRelationMatchesKeyOracle(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		r := NewRelation(propSchema())
		oracle := map[string]Tuple{}
		type frozen struct {
			snap *Relation
			want map[string]Tuple
		}
		var snaps []frozen
		batch := func() []Tuple {
			ts := make([]Tuple, rng.Intn(6))
			for i := range ts {
				ts[i] = randTuple(rng)
			}
			return ts
		}
		insertWant := func(ts []Tuple) int {
			n := 0
			for _, tu := range ts {
				if _, ok := oracle[tu.Key()]; !ok {
					oracle[tu.Key()] = tu.Clone()
					n++
				}
			}
			return n
		}
		deleteWant := func(ts []Tuple) int {
			n := 0
			for _, tu := range ts {
				if _, ok := oracle[tu.Key()]; ok {
					delete(oracle, tu.Key())
					n++
				}
			}
			return n
		}
		for step := 0; step < 400; step++ {
			switch op := rng.Intn(20); {
			case op < 5:
				tu := randTuple(rng)
				want := insertWant([]Tuple{tu}) == 1
				if added, err := r.Insert(tu); err != nil || added != want {
					t.Fatalf("seed %d step %d: Insert(%v) = %v, %v; want %v", seed, step, tu, added, err, want)
				}
			case op < 7:
				ts := batch()
				want := insertWant(ts)
				if n, err := r.InsertBatch(ts); err != nil || n != want {
					t.Fatalf("seed %d step %d: InsertBatch = %d, %v; want %d", seed, step, n, err, want)
				}
			case op < 9:
				ts := batch()
				want := insertWant(ts)
				if n, err := r.InsertOwned(ts); err != nil || n != want {
					t.Fatalf("seed %d step %d: InsertOwned = %d, %v; want %d", seed, step, n, err, want)
				}
			case op < 13:
				// Delete through the other NaN payload half the time: the
				// Key is the same, so the tuple must still go.
				tu := randTuple(rng)
				if rng.Intn(2) == 0 {
					tu = swapNaN(tu)
				}
				want := deleteWant([]Tuple{tu}) == 1
				if got := r.Delete(tu); got != want {
					t.Fatalf("seed %d step %d: Delete(%v) = %v, want %v", seed, step, tu, got, want)
				}
			case op < 15:
				ts := batch()
				want := deleteWant(ts)
				if n, err := r.DeleteBatch(ts); err != nil || n != want {
					t.Fatalf("seed %d step %d: DeleteBatch = %d, %v; want %d", seed, step, n, err, want)
				}
			case op < 16:
				r.Compact()
			case op < 18:
				r.BuildIndex(rng.Intn(len(propPools)))
			default:
				snaps = append(snaps, frozen{r.Snapshot(), copyOracle(oracle)})
			}
			checkAgainstOracle(t, "head", r, oracle)
		}
		for _, f := range snaps {
			checkAgainstOracle(t, "snapshot", f.snap, f.want)
		}
	}
}

// TestTupleIndexMatchesKeyOracle drives the table the evaluator shares
// with mixed-kind single-value tuples, lookalikes included, against a
// map keyed by Tuple.Key: Add and AddOwned report new exactly when the
// Key is new, Get finds exactly the added Keys, and ids are dense.
func TestTupleIndexMatchesKeyOracle(t *testing.T) {
	pool := []value.Value{
		value.Int(1), value.Float(1), value.String("1"),
		value.Int(0), value.Float(0), negZero, value.String("0"), value.String(""),
		nanA, nanB, value.Float(math.Inf(-1)),
	}
	rng := rand.New(rand.NewSource(7))
	var ix TupleIndex
	oracle := map[string]int{}
	for step := 0; step < 2000; step++ {
		tu := Tuple{pool[rng.Intn(len(pool))], pool[rng.Intn(len(pool))]}
		k := tu.Key()
		wantID, present := oracle[k]
		if rng.Intn(3) == 0 {
			id, ok := ix.Get(tu)
			if ok != present || (ok && id != wantID) {
				t.Fatalf("step %d: Get(%v) = %d, %v; want %d, %v", step, tu, id, ok, wantID, present)
			}
			continue
		}
		var id int
		var added bool
		if rng.Intn(2) == 0 {
			id, added = ix.Add(tu)
		} else {
			id, added = ix.AddOwned(tu.Clone())
		}
		if added == present {
			t.Fatalf("step %d: add of %v reported added=%v with the Key already present=%v", step, tu, added, present)
		}
		if !present {
			wantID = len(oracle)
			oracle[k] = wantID
		}
		if id != wantID {
			t.Fatalf("step %d: add of %v = id %d, want %d", step, tu, id, wantID)
		}
	}
	if ix.Len() != len(oracle) {
		t.Fatalf("Len = %d, oracle holds %d", ix.Len(), len(oracle))
	}
}

// TestSnapshotReadsWhileSourceWrites reads a snapshot from several
// goroutines while its source inserts, deletes, compacts and rebuilds
// indexes (meaningful under -race: the source appends only past the
// snapshot's prefix of its rows, and copies them before a delete clears a
// slot). The snapshot's first membership test and first sorted scan fill
// its membership table and its row-order memo under the readers' race.
// The readers' answers must never move.
func TestSnapshotReadsWhileSourceWrites(t *testing.T) {
	r := NewRelation(snapSchema().Relation("R"))
	for i := 0; i < 300; i++ {
		r.MustInsert(value.Int(int64(i)), value.String([]string{"a", "b", "c"}[i%3]))
	}
	r.BuildIndex(0)
	r.BuildIndex(1)
	snap := r.Snapshot()
	wantB := len(snap.Lookup(1, value.String("b")))

	var wg, started sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan string, 4)
	for w := 0; w < 3; w++ {
		wg.Add(1)
		started.Add(1)
		go func(w int) {
			defer wg.Done()
			signaled := false
			signal := func() {
				if !signaled {
					signaled = true
					started.Done()
				}
			}
			defer signal()
			buf := make([]Tuple, 0, 128)
			for i := 0; ; i++ {
				if i == 1 {
					signal()
				}
				select {
				case <-stop:
					return
				default:
				}
				k := int64((i*7 + w) % 300)
				if got := snap.AppendLookup(buf[:0], 0, value.Int(k)); len(got) != 1 || got[0][0] != value.Int(k) {
					errs <- "indexed lookup moved"
					return
				}
				if got := snap.AppendLookup(buf[:0], 1, value.String("b")); len(got) != wantB {
					errs <- "chain walk moved"
					return
				}
				if !snap.Contains(Tuple{value.Int(k), value.String([]string{"a", "b", "c"}[k%3])}) {
					errs <- "membership moved"
					return
				}
				// Absent keys probe to an empty slot — the slots the
				// writer's inserts fill.
				if snap.Contains(Tuple{value.Int(1000 + k), value.String("b")}) {
					errs <- "a later insert showed through"
					return
				}
				if snap.Len() != 300 || snap.DistinctCount(1) != 3 {
					errs <- "statistics moved"
					return
				}
				n, prev := 0, Tuple(nil)
				snap.SortedScan(func(t Tuple) bool {
					if prev != nil && prev.Compare(t) >= 0 {
						n = -1
						return false
					}
					n, prev = n+1, t
					return true
				})
				if n != 300 {
					errs <- "sorted scan moved"
					return
				}
			}
		}(w)
	}
	// Write only once every reader is inside its loop, so the two sides
	// really overlap.
	started.Wait()
	for i := 0; i < 2000; i++ {
		switch i % 4 {
		case 0:
			r.MustInsert(value.Int(int64(1000+i)), value.String("b"))
		case 1:
			r.Delete(Tuple{value.Int(int64(i % 300)), value.String([]string{"a", "b", "c"}[(i%300)%3])})
		case 2:
			r.Snapshot()
		case 3:
			if i%40 == 3 {
				r.Compact()
				r.BuildIndex(1)
			}
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	if snap.Len() != 300 {
		t.Fatalf("snapshot len %d after source writes, want 300", snap.Len())
	}
}

// ascendsAllPairs is RowsAscend's oracle, stated over every pair of live
// rows rather than neighbours: no NaN anywhere, and each row strictly
// before every later one under Tuple.Compare.
func ascendsAllPairs(r *Relation) bool {
	rows := r.Tuples()
	for i, row := range rows {
		for _, v := range row {
			if v.Kind() == value.KindFloat && math.IsNaN(v.FloatVal()) {
				return false
			}
		}
		for _, later := range rows[i+1:] {
			if row.Compare(later) >= 0 {
				return false
			}
		}
	}
	return true
}

// TestRowsAscendMatchesAllPairs: over random rows — with NaN payloads and ±0
// on odd rounds, loaded sorted or as drawn — RowsAscend agrees with the
// all-pairs oracle on the mutable relation after every write (holes, a
// row deleted and re-inserted), so its answer follows the writes, and on
// a snapshot taken then, which keeps its answer while its source changes.
func TestRowsAscendMatchesAllPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ascending, outOfOrder, flips := 0, 0, 0
	for round := 0; round < 400; round++ {
		floats := []value.Value{value.Float(1), value.Float(2), value.Float(-1.5)}
		if round%2 == 1 {
			floats = append(floats, value.Float(0), negZero, nanA, nanB)
		}
		rows := make([]Tuple, rng.Intn(10))
		for i := range rows {
			rows[i] = Tuple{value.Int(int64(rng.Intn(4))), floats[rng.Intn(len(floats))], value.String(string(rune('a' + rng.Intn(2))))}
		}
		if round%4 < 2 {
			slices.SortFunc(rows, Tuple.Compare)
		}
		r := NewRelation(propSchema())
		if _, err := r.InsertBatch(rows); err != nil {
			t.Fatal(err)
		}
		type frozen struct {
			rel  *Relation
			want bool
		}
		var snaps []frozen
		check := func(step string) {
			t.Helper()
			want := ascendsAllPairs(r)
			if len(snaps) > 0 && snaps[len(snaps)-1].want != want {
				flips++
			}
			if got := r.RowsAscend(); got != want {
				t.Fatalf("round %d, %s: mutable RowsAscend = %v, want %v (rows %v)", round, step, got, want, r.Tuples())
			}
			snap := r.Snapshot()
			if got := snap.RowsAscend(); got != want {
				t.Fatalf("round %d, %s: snapshot RowsAscend = %v, want %v (rows %v)", round, step, got, want, snap.Tuples())
			}
			snaps = append(snaps, frozen{snap, want})
			if want {
				ascending++
			} else {
				outOfOrder++
			}
		}
		check("loaded")
		if live := r.Tuples(); len(live) > 0 {
			row := live[rng.Intn(len(live))]
			r.Delete(row)
			check("deleted")
			if _, err := r.Insert(row); err != nil {
				t.Fatal(err)
			}
			check("re-inserted")
			for range 1 + len(live)/3 {
				r.Delete(live[rng.Intn(len(live))])
			}
			check("holes")
		}
		for i, s := range snaps {
			if got := s.rel.RowsAscend(); got != s.want || got != ascendsAllPairs(s.rel) {
				t.Fatalf("round %d: snapshot %d reads %v after its source changed, want %v", round, i, got, s.want)
			}
		}
	}
	if ascending < 100 || outOfOrder < 100 || flips < 100 {
		t.Errorf("%d checks ascending, %d out of order, %d answers changed by a write; want at least 100 each", ascending, outOfOrder, flips)
	}
}
