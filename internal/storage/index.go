package storage

import (
	"repro/internal/value"
)

// valueDict is a column's value dictionary: it assigns each distinct value
// a dense code in first-seen order, through an open-addressed table over
// the codes. Values are the same exactly when == says so, as in a Go map:
// +0 and -0 share a code, and no NaN equals anything, so each NaN gets a
// code of its own. Both a mutable relation's column index (colIndex) and
// a columnar block's column (Column) are built on one, in bulk by
// encodeColumn; codeOrAdd extends a column index one row at a time.
type valueDict struct {
	vals   []value.Value // code -> distinct value
	hashes []uint64      // dictHash per code, for cheap table rejection
	table  []int32       // open-addressed value -> code+1; 0 = empty
	mask   uint64
}

// dictHash hashes v consistently with ==: the two zeros hash alike.
func dictHash(v value.Value) uint64 {
	if v.Kind() == value.KindFloat && v.FloatVal() == 0 {
		v = value.Float(0)
	}
	return v.Hash()
}

// code returns v's code, or ok=false when no value equal to v was added.
func (d *valueDict) code(v value.Value) (uint32, bool) {
	if d.table == nil {
		return 0, false
	}
	_, code := d.find(v, dictHash(v))
	return uint32(code), code >= 0
}

// codeOrAdd returns v's code, assigning the next one if v is new.
func (d *valueDict) codeOrAdd(v value.Value) uint32 {
	if d.table == nil {
		d.table = make([]int32, 16)
		d.mask = 15
	}
	h := dictHash(v)
	slot, code := d.find(v, h)
	if code >= 0 {
		return uint32(code)
	}
	c := uint32(len(d.vals))
	d.vals = append(d.vals, v)
	d.hashes = append(d.hashes, h)
	d.table[slot] = int32(c + 1)
	if len(d.vals)*4 >= len(d.table)*3 {
		d.grow()
	}
	return c
}

// find probes for v, whose hash is h. It returns v's code, or -1 with
// the empty slot where v's probe ended.
func (d *valueDict) find(v value.Value, h uint64) (slot uint64, code int) {
	i := h & d.mask
	for {
		e := d.table[i]
		if e == 0 {
			return i, -1
		}
		j := int(e - 1)
		if d.hashes[j] == h && d.vals[j] == v {
			return i, j
		}
		i = (i + 1) & d.mask
	}
}

func (d *valueDict) grow() {
	n := len(d.table) * 2
	d.table = make([]int32, n)
	d.mask = uint64(n - 1)
	for j, h := range d.hashes {
		i := h & d.mask
		for d.table[i] != 0 {
			i = (i + 1) & d.mask
		}
		d.table[i] = int32(j + 1)
	}
}

// encodeColumn is the bulk dictionary build, shared by column indexes
// and columnar blocks. It writes the code of each row's column col into
// codes (-1 for a nil row, a hole) and returns the dictionary codeOrAdd
// would build row by row: codes in first-seen order under the same ==
// rules. It hashes each row once and copies no value until the end: its
// probe table holds each distinct value's first row and compares
// candidates in place in rows, and it grows with the distinct count, not
// the row count, as does the hash per code. The values are then
// allocated once, at their final count, and the probe table is rewritten
// in place into the dictionary's.
func encodeColumn(rows []Tuple, col int, codes []int32) valueDict {
	table := make([]int32, 16) // first row + 1; 0 = empty
	hashes := make([]uint64, 12)
	mask := uint64(15)
	n := 0
	for r, t := range rows {
		if t == nil {
			codes[r] = -1
			continue
		}
		v := t[col]
		h := dictHash(v)
		for i := h & mask; ; i = (i + 1) & mask {
			e := table[i]
			if e == 0 {
				table[i] = int32(r + 1)
				codes[r] = int32(n)
				hashes[n] = h
				n++
				if n == len(hashes) {
					table, hashes, mask = regrowFirstRows(table, hashes, codes)
				}
				break
			}
			if c := codes[e-1]; hashes[c] == h && rows[e-1][col] == v {
				codes[r] = c
				break
			}
		}
	}
	vals := make([]value.Value, n)
	for i, e := range table {
		if e != 0 {
			code := codes[e-1]
			vals[code] = rows[e-1][col]
			table[i] = code + 1
		}
	}
	return valueDict{vals: vals, hashes: hashes[:n], table: table, mask: mask}
}

// regrowFirstRows doubles encodeColumn's probe table of first rows and
// its hash per code. The hashes hold as many codes as the table takes
// below the 3/4 load factor, so both grow at the point codeOrAdd's table
// does.
func regrowFirstRows(table []int32, hashes []uint64, codes []int32) ([]int32, []uint64, uint64) {
	out := make([]int32, 2*len(table))
	mask := uint64(len(out) - 1)
	for _, e := range table {
		if e != 0 {
			i := hashes[codes[e-1]] & mask
			for out[i] != 0 {
				i = (i + 1) & mask
			}
			out[i] = e
		}
	}
	grown := make([]uint64, len(out)*3/4)
	copy(grown, hashes)
	return out, grown, mask
}

// footprint approximates the dictionary's memory in bytes: the value
// structs, their string payloads, the hash cache and the probe table.
// A value's payload counts as the length of its String rendering,
// measured by rendering into a stack buffer rather than building the
// string, so measuring a block allocates nothing.
func (d *valueDict) footprint() uint64 {
	n := uint64(0)
	var buf [64]byte
	for _, v := range d.vals {
		if v.Kind() == value.KindString {
			n += 32 + uint64(len(v.Str()))
		} else {
			n += 32 + uint64(len(value.AppendString(buf[:0], v)))
		}
	}
	return n + 8*uint64(len(d.hashes)) + 4*uint64(len(d.table))
}

// colIndex is a mutable relation's hash index on one column: the column's
// value dictionary plus two chains over row positions. head[c] is the
// first row holding the value with code c and next[row] the following
// one (-1 ends a chain), so a lookup walks rows in ascending position
// order with no per-value allocation; tail[c] makes appending a row O(1).
// Deleted rows stay chained and are skipped by readers, as they are in
// the row slice; compaction rebuilds the index.
type colIndex struct {
	dict valueDict
	head []int32 // code -> first row
	tail []int32 // code -> last row
	next []int32 // row -> next row with the same value, or -1
}

// newColIndex indexes column col of rows (nil entries are holes). The
// bulk encoder writes each row's code into next, which the chaining pass
// then overwrites in place: row r's code is read before any write reaches
// position r.
func newColIndex(rows []Tuple, col int) *colIndex {
	next := make([]int32, len(rows))
	ix := &colIndex{dict: encodeColumn(rows, col, next), next: next}
	ix.head = make([]int32, 0, len(ix.dict.vals))
	ix.tail = make([]int32, 0, len(ix.dict.vals))
	for r, code := range next {
		next[r] = -1
		if code >= 0 {
			ix.chain(r, code)
		}
	}
	return ix
}

// add chains row, which must be the next row position, under v.
func (ix *colIndex) add(row int, v value.Value) {
	ix.next = append(ix.next, -1)
	ix.chain(row, int32(ix.dict.codeOrAdd(v)))
}

// chain links row, whose next entry is already -1, at the end of code's
// chain; a code one past the last starts a new chain.
func (ix *colIndex) chain(row int, code int32) {
	if int(code) == len(ix.head) {
		ix.head = append(ix.head, int32(row))
		ix.tail = append(ix.tail, int32(row))
		return
	}
	ix.next[ix.tail[code]] = int32(row)
	ix.tail[code] = int32(row)
}

// first returns the first row whose column equals v, or -1.
func (ix *colIndex) first(v value.Value) int32 {
	code, ok := ix.dict.code(v)
	if !ok {
		return -1
	}
	return ix.head[code]
}

// distinct counts the values that still have a live row.
func (ix *colIndex) distinct(rows []Tuple) int {
	n := 0
	for _, r := range ix.head {
		for ; r >= 0; r = ix.next[r] {
			if rows[r] != nil {
				n++
				break
			}
		}
	}
	return n
}

// distinctRows counts the distinct values of column col among rows (nil
// entries are holes) without an index: one probe table of row positions,
// compared with == like the dictionary, sized once for live rows.
func distinctRows(rows []Tuple, col, live int) int {
	size := 16
	for size < 2*live {
		size *= 2
	}
	table := make([]int32, size)
	mask := uint64(size - 1)
	n := 0
	for r, t := range rows {
		if t == nil {
			continue
		}
		v := t[col]
		for i := dictHash(v) & mask; ; i = (i + 1) & mask {
			e := table[i]
			if e == 0 {
				table[i] = int32(r + 1)
				n++
				break
			}
			if rows[e-1][col] == v {
				break
			}
		}
	}
	return n
}
