package storage

import (
	"math"

	"repro/internal/value"
)

// TupleIndex is an open-addressed hash table of tuples that assigns each
// distinct tuple a dense id in insertion order. It is the one tuple table
// of the engine: every Relation keeps its rows in one (an id is a row
// position), and the evaluator deduplicates answers through one (package
// eval re-exports it), so neither storing nor deduplicating a tuple
// builds a Key string.
//
// Two tuples are the same member exactly when their Keys are equal:
// values of different kinds differ, floats compare by bit pattern (so
// +0 and -0 are distinct members) except that every NaN is one member.
// Linear probing over a power-of-two table; the zero value is ready to
// use. Not safe for concurrent mutation.
type TupleIndex struct {
	table  []int32 // id + 1; 0 = empty
	mask   uint64
	hashes []uint64 // hash per id, for cheap rejection and rehashing
	tuples []Tuple  // id -> tuple; nil once removed
	// arena backs cloned tuples in shared chunks that grow with the index
	// (see clone): a large index costs about one allocation per 1,024
	// values instead of one per tuple, and a one-tuple index retains one
	// tuple's values. Retained tuples slice into a chunk with capacity ==
	// length, so callers appending to a returned tuple cannot clobber a
	// neighbor.
	arena []value.Value
}

// canonicalNaN stands in for every NaN when hashing by Key equality.
var canonicalNaN = value.Float(math.NaN())

// hashTuple hashes t consistently with sameKey: NaN payloads collapse to
// one, everything else hashes by its bits through value.Hash.
func hashTuple(t Tuple) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range t {
		if isNaN(v) {
			v = canonicalNaN
		}
		h ^= v.Hash()
		h *= 1099511628211
	}
	return h
}

// sameKey reports whether t and u render the same Key.
func sameKey(t, u Tuple) bool {
	if len(t) != len(u) {
		return false
	}
	for i := range t {
		a, b := t[i], u[i]
		if a.Kind() != value.KindFloat || b.Kind() != value.KindFloat {
			if a != b {
				return false
			}
			continue
		}
		x, y := a.FloatVal(), b.FloatVal()
		if math.Float64bits(x) != math.Float64bits(y) && !(math.IsNaN(x) && math.IsNaN(y)) {
			return false
		}
	}
	return true
}

// Add returns the id of t, inserting a clone if absent; added reports
// whether the tuple was new. The argument may be a reused buffer — the
// table never retains it.
func (ix *TupleIndex) Add(t Tuple) (id int, added bool) {
	return ix.insert(t, true)
}

// AddOwned is Add for tuples the caller owns (already cloned, never
// mutated); the table retains the argument instead of copying it.
func (ix *TupleIndex) AddOwned(t Tuple) (id int, added bool) {
	return ix.insert(t, false)
}

// Get returns the id of t, or ok=false if the tuple is not a member.
func (ix *TupleIndex) Get(t Tuple) (id int, ok bool) {
	if ix.table == nil {
		return 0, false
	}
	if _, id = ix.find(t, hashTuple(t)); id < 0 {
		return 0, false
	}
	return id, true
}

// find probes for t, whose hash is h. It returns the id of the member
// equal to t, or -1 with the empty slot where t's probe ended.
func (ix *TupleIndex) find(t Tuple, h uint64) (slot uint64, id int) {
	i := h & ix.mask
	for {
		e := ix.table[i]
		if e == 0 {
			return i, -1
		}
		j := int(e - 1)
		if ix.hashes[j] == h && ix.tuples[j] != nil && sameKey(ix.tuples[j], t) {
			return i, j
		}
		i = (i + 1) & ix.mask
	}
}

// Len returns the number of ids handed out, removed ones included.
func (ix *TupleIndex) Len() int { return len(ix.tuples) }

// Tuple returns the tuple with the given id (nil if it was removed).
func (ix *TupleIndex) Tuple(id int) Tuple { return ix.tuples[id] }

// Tuples returns the tuples in id order. The slice is the index's backing
// storage; callers must not mutate it while the index is still in use.
func (ix *TupleIndex) Tuples() []Tuple { return ix.tuples }

func (ix *TupleIndex) insert(t Tuple, clone bool) (int, bool) {
	if ix.table == nil {
		ix.rehash(64)
	}
	h := hashTuple(t)
	slot, id := ix.find(t, h)
	if id >= 0 {
		return id, false
	}
	id = len(ix.tuples)
	if clone || t == nil {
		t = ix.clone(t)
	}
	ix.tuples = append(ix.tuples, t)
	ix.hashes = append(ix.hashes, h)
	ix.table[slot] = int32(id + 1)
	if len(ix.tuples)*4 >= len(ix.table)*3 {
		ix.rehash(2 * len(ix.table))
	}
	return id, true
}

// adopt prepares an empty index for a bulk load of rows, sized so the
// load neither regrows the table nor reallocates the hash slice. The
// index takes rows' backing array as its tuple slice: the loader writes
// each accepted tuple back at or before the position it read it from.
func (ix *TupleIndex) adopt(rows []Tuple) {
	ix.tuples = rows[:0]
	ix.hashes = make([]uint64, 0, len(rows))
	ix.rehash(tableSize(len(rows)))
}

// tableSize returns the smallest power-of-two table (at least 64 slots)
// that holds n ids below the 3/4 load factor.
func tableSize(n int) int {
	size := 64
	for n*4 >= size*3 {
		size *= 2
	}
	return size
}

// compacted returns a fresh index over the live rows, in id order, with
// no holes and no arena. The tuples and their hashes are reused, so it
// neither clones nor rehashes a tuple.
func (ix *TupleIndex) compacted(live int) TupleIndex {
	out := TupleIndex{tuples: make([]Tuple, 0, live), hashes: make([]uint64, 0, live)}
	for j, t := range ix.tuples {
		if t != nil {
			out.tuples = append(out.tuples, t)
			out.hashes = append(out.hashes, ix.hashes[j])
		}
	}
	out.rehash(tableSize(live))
	return out
}

// clone copies t into the index's arena. A chunk stays reachable as long
// as any tuple cut from it does. Each new chunk holds about as many
// values as the index already has, capped at 1,024. Growth is geometric,
// so a small answer pins only its own values, where a worst-case chunk
// would pin 40 KB (1,024 values of 40 B) behind every index that caches
// hold for a one-tuple answer.
func (ix *TupleIndex) clone(t Tuple) Tuple {
	n := len(t)
	if n == 0 {
		return Tuple{}
	}
	if len(ix.arena) < n {
		const chunk = 1024
		ix.arena = make([]value.Value, max(n, min(chunk, len(ix.tuples)*n)))
	}
	out := ix.arena[:n:n]
	ix.arena = ix.arena[n:]
	copy(out, t)
	return out
}

// rehash rebuilds the probe table at the given power-of-two size from the
// stored hashes. Removed rows get no entry, which is how tombstones go.
func (ix *TupleIndex) rehash(size int) {
	ix.table = make([]int32, size)
	ix.mask = uint64(size - 1)
	for j, h := range ix.hashes {
		if ix.tuples[j] == nil {
			continue
		}
		i := h & ix.mask
		for ix.table[i] != 0 {
			i = (i + 1) & ix.mask
		}
		ix.table[i] = int32(j + 1)
	}
}
