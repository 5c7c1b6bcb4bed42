package storage

import (
	"slices"
	"sync"
	"sync/atomic"
	"weak"

	"repro/internal/value"
)

// ColBlock is a dictionary-encoded columnar image of a frozen relation's
// live tuples: the read-optimized access structure of data that no longer
// changes (a mutable relation is read through its row indexes instead).
// It keeps the rows and encodes each column only when a reader first asks
// for it (Column), so a block costs its row slice plus the columns plans
// actually compare: a column's distinct values stored once in a
// dictionary (hash-indexed by an open-addressed table), a dense code
// vector mapping row position to dictionary code, and a CSR posting list
// mapping code to row positions. The compiled evaluator (internal/eval)
// resolves each step's columns and constants once per run, compares
// uint32 codes instead of value.Values in its probe/scan loops, and walks
// posting lists in place — no per-probe buffer copies, no locking, no
// allocation.
//
// A block's rows never change. Each column is encoded at most once per
// block, under the block's lock, and published atomically. A relation
// keeps its block while the block set holds it (admitBlock): at most
// maxBlocks frozen relations hold one at a time, and a relation evicted
// from the set builds its block again, from the same rows, when it is
// next read.
//
// A block whose relation extends a predecessor (Relation.Snapshot)
// encodes a column by extending the predecessor block's, when that block
// is still held and has the column encoded (extend): successive versions
// of an appended relation then share their columns' values, hashes,
// codes and postings, as they share rows, and each holds only a probe
// table of its own.
type ColBlock struct {
	rows []Tuple
	prev weak.Pointer[Relation]   // the relation's predecessor, if any
	mu   sync.Mutex               // serializes column encodings
	cols []atomic.Pointer[Column] // nil until the column is first read
}

// Column is one encoded column of a ColBlock: the column's value
// dictionary, a dense row -> code vector, and CSR posting lists.
type Column struct {
	valueDict
	codes []int32 // row -> code

	// CSR posting lists: rows with code c are postRows[postStart[c]:postStart[c+1]].
	postStart []uint32
	postRows  []uint32

	// tail is claimed by the first column that extends this one: it alone
	// may append into the spare capacity of this column's arrays.
	tail atomic.Bool
}

// maxColumnarRows bounds the dense row count a block will encode; beyond
// it (far past anything the uint32 code/row vectors could mis-address)
// the relation simply stays on the row path.
const maxColumnarRows = 1 << 30

// maxBlocks bounds the frozen relations that hold a columnar block at
// once, process-wide. A block is an index derived from rows its relation
// keeps, so evicting one costs a rebuild on the relation's next read,
// never an answer. The bound sits above every measured working set: a
// cold or hot serving run reads 4 blocks, a history run 35, a mixed run
// its head's 3 at a time, and a 32-version sweep through copied views
// (BenchmarkVersionSweep/copy) 101 (66 view copies, the 32 versions'
// Family relations and the relations they share). At a bound of 64
// that sweep rebuilt 64 blocks on every pass, and its bytes per sweep
// rose from 1.0 to 4.1 MB.
const maxBlocks = 128

// blocks is the block set: a CLOCK ring of the frozen relations that
// hold a block, each with a visited bit on the relation (colSeen) that a
// ColumnarBlock hit sets, for second-chance eviction as in SIEVE (Zhang
// et al., NSDI 2024). The ring holds weak pointers, so it keeps no
// relation alive: the slot of a relation that was collected is free
// again.
var blocks struct {
	mu   sync.Mutex
	ring [maxBlocks]weak.Pointer[Relation]
	hand int // the next slot admitBlock examines
}

// Cumulative columnarization counters, exposed on /metrics.
var (
	colBlocksBuilt   atomic.Uint64 // blocks built, rebuilds of evicted blocks included
	colBlocksEvicted atomic.Uint64 // blocks evicted from the block set
	colDictBytes     atomic.Uint64 // approximate dictionary bytes of encoded columns
	colCodeBytes     atomic.Uint64 // code-vector + posting-list bytes of encoded columns
	colEncoded       atomic.Uint64 // columns encoded, extensions included
	colExtended      atomic.Uint64 // columns encoded by extending a predecessor's
)

// ColumnarStats is a snapshot of the columnarization counters and of the
// block set.
type ColumnarStats struct {
	BlocksBuilt   uint64 // columnar blocks constructed since process start, rebuilds included
	BlocksEvicted uint64 // blocks evicted from the block set since process start
	BlocksHeld    int    // frozen relations holding a block now, at most maxBlocks
	DictBytes     uint64 // cumulative dictionary bytes of encoded block columns
	CodeBytes     uint64 // cumulative code-vector and posting-list bytes of encoded block columns

	ColumnsEncoded  uint64 // block columns encoded since process start, extensions included
	ColumnsExtended uint64 // block columns encoded by extending a predecessor block's
}

// ColumnarUsage returns the process-wide columnarization counters and
// the block set's occupancy.
func ColumnarUsage() ColumnarStats {
	held := 0
	blocks.mu.Lock()
	for _, p := range blocks.ring {
		if p.Value() != nil {
			held++
		}
	}
	blocks.mu.Unlock()
	return ColumnarStats{
		BlocksBuilt:   colBlocksBuilt.Load(),
		BlocksEvicted: colBlocksEvicted.Load(),
		BlocksHeld:    held,
		DictBytes:     colDictBytes.Load(),
		CodeBytes:     colCodeBytes.Load(),

		ColumnsEncoded:  colEncoded.Load(),
		ColumnsExtended: colExtended.Load(),
	}
}

// ColumnarBlock returns a frozen relation's columnar block, building it
// when the relation holds none: on first request, and again after the
// block set evicted it. A hit marks the relation visited in the block
// set, writing the bit only when it is clear, so concurrent readers of a
// hot relation do not all write to it. A mutable relation has no block
// (nil): it is read through its row indexes, which writes keep current,
// where a block would be stale after the next write. So is a relation
// past maxColumnarRows.
func (r *Relation) ColumnarBlock() *ColBlock {
	if blk := r.colBlk.Load(); blk != nil {
		if !r.colSeen.Load() {
			r.colSeen.Store(true)
		}
		return blk
	}
	if !r.frozen {
		return nil
	}
	return r.buildColumnar()
}

// buildColumnar constructs and publishes the block of the frozen relation
// r, its live rows with no column encoded yet, and admits r to the block
// set. colMu serializes builders, so a relation builds one block until
// the set evicts it. A rebuild reads the same rows, so it encodes the
// same codes, dictionaries and postings.
func (r *Relation) buildColumnar() *ColBlock {
	r.colMu.Lock()
	defer r.colMu.Unlock()
	if blk := r.colBlk.Load(); blk != nil || r.live > maxColumnarRows {
		return blk
	}
	// A frozen relation's row slice is never written again (its source
	// appends past it and copies it before a delete), so a block over one
	// without holes shares it; otherwise the block copies the live rows.
	rows := r.rows.tuples
	if r.live != len(rows) {
		rows = appendLive(make([]Tuple, 0, r.live), rows)
	}
	blk := &ColBlock{rows: rows, prev: r.prev, cols: make([]atomic.Pointer[Column], r.schema.Arity())}
	r.colBlk.Store(blk)
	colBlocksBuilt.Add(1)
	admitBlock(r)
	return blk
}

// admitBlock enters r, which has just published a block, into the block
// set. The hand moves round the ring, clearing each visited bit it
// passes, and stops at the first slot whose relation is gone (never
// filled, or collected) or has its bit clear; it evicts the latter by
// storing nil into its block, and r takes the slot. A walk that bound
// the evicted block keeps reading it; the block is freed once no walk
// holds it. Eviction takes no relation's colMu, so builders, which hold
// their own while admitting, cannot deadlock.
func admitBlock(r *Relation) {
	blocks.mu.Lock()
	defer blocks.mu.Unlock()
	for {
		v := blocks.ring[blocks.hand].Value()
		if v == nil {
			break
		}
		if !v.colSeen.Swap(false) {
			v.colBlk.Store(nil)
			colBlocksEvicted.Add(1)
			break
		}
		blocks.hand = (blocks.hand + 1) % maxBlocks
	}
	blocks.ring[blocks.hand] = weak.Make(r)
	blocks.hand = (blocks.hand + 1) % maxBlocks
}

// Column returns column col's encoding, building it on first use. Tuples
// are never mutated in place, so the rows a block holds stay valid to
// encode for as long as the block lives, evicted or not.
func (b *ColBlock) Column(col int) *Column {
	if c := b.cols[col].Load(); c != nil {
		return c
	}
	return b.encode(col)
}

// encode builds and publishes column col's encoding unless a concurrent
// reader already did: by extending the predecessor block's column when
// it can, and from the rows otherwise. Either way the column is the
// same.
func (b *ColBlock) encode(col int) *Column {
	b.mu.Lock()
	defer b.mu.Unlock()
	if c := b.cols[col].Load(); c != nil {
		return c
	}
	var c *Column
	if p := b.predecessor(col); p != nil {
		var dict, code uint64
		c, dict, code = extend(p, b.rows, col)
		colDictBytes.Add(dict)
		colCodeBytes.Add(code)
		colExtended.Add(1)
	} else {
		c = &Column{codes: make([]int32, len(b.rows))}
		c.valueDict = encodeColumn(b.rows, col, c.codes)
		c.post()
		colDictBytes.Add(c.footprint())
		colCodeBytes.Add(4 * uint64(len(c.codes)+len(c.postRows)+len(c.postStart)))
	}
	b.cols[col].Store(c)
	colEncoded.Add(1)
	return c
}

// predecessor returns column col of the predecessor's block, when the
// block's relation has a predecessor that is still live and holds its
// block with that column encoded, and nil otherwise. It builds and
// encodes nothing, and does not mark the predecessor visited.
func (b *ColBlock) predecessor(col int) *Column {
	p := b.prev.Value()
	if p == nil {
		return nil
	}
	if pb := p.colBlk.Load(); pb != nil {
		return pb.cols[col].Load()
	}
	return nil
}

// post builds the column's CSR postings from its codes by counting sort:
// count each code's rows, turn the counts into bucket ends, then scatter
// the rows from the back, moving each bucket's end down to its start.
// Buckets come out ascending, and no cursor array is needed.
func (c *Column) post() {
	nv := len(c.vals)
	c.postStart = make([]uint32, nv+1)
	for _, code := range c.codes {
		c.postStart[code]++
	}
	for i := 1; i < nv; i++ {
		c.postStart[i] += c.postStart[i-1]
	}
	c.postStart[nv] = uint32(len(c.codes))
	c.postRows = make([]uint32, len(c.codes))
	for i := len(c.codes) - 1; i >= 0; i-- {
		code := c.codes[i]
		c.postStart[code]--
		c.postRows[c.postStart[code]] = uint32(i)
	}
}

// extend encodes column col of rows, whose first len(p.codes) rows are
// those p encodes, by extending p, the predecessor block's column. Only
// the appended rows are hashed, and a new value takes the next code, so
// codes, dictionary and postings are those a from-scratch encode builds.
// Values, hashes and codes are appended past p's lengths, and so are the
// postings when every appended row takes a new code (each then posts
// itself alone); otherwise the postings are rebuilt from the codes. The
// first column to extend p claims p.tail and appends in place, into p's
// spare capacity; any later one, a rebuild of an evicted block, finds
// p's arrays capped at their lengths and copies. An array without room
// is copied with an eighth more than it needs (grow). The probe table,
// the one structure inserting a value writes into, is p's copied. It
// returns the column and the dictionary and code bytes it allocated.
func extend(p *Column, rows []Tuple, col int) (c *Column, dict, code uint64) {
	n, m := len(p.codes), len(rows)-len(p.codes)
	vals, hashes, codes, postStart, postRows := p.vals, p.hashes, p.codes, p.postStart, p.postRows
	if !p.tail.CompareAndSwap(false, true) {
		vals, hashes, codes = vals[:len(vals):len(vals)], hashes[:len(hashes):len(hashes)], codes[:n:n]
		postStart, postRows = postStart[:len(postStart):len(postStart)], postRows[:n:n]
	}
	c = &Column{valueDict: valueDict{vals: vals, hashes: hashes, table: slices.Clone(p.table), mask: p.mask}}
	dict = 4 * uint64(len(c.table))
	c.codes = grow(codes, m, 4, &code)
	fresh := true // every appended row took a new code
	for i := n; i < len(rows); i++ {
		v := rows[i][col]
		h := dictHash(v)
		slot, k := c.find(v, h)
		if k < 0 {
			k = len(c.vals)
			c.vals = grow(c.vals, 1, valueBytes, &dict)
			c.vals[k] = v
			c.hashes = grow(c.hashes, 1, 8, &dict)
			c.hashes[k] = h
			c.table[slot] = int32(k + 1)
			if len(c.vals)*4 >= len(c.table)*3 {
				c.grow()
				dict += 4 * uint64(len(c.table))
			}
		} else {
			fresh = false
		}
		c.codes[i] = int32(k)
	}
	if !fresh {
		c.post()
		return c, dict, code + 4*uint64(len(c.postStart)+len(c.postRows))
	}
	c.postStart = grow(postStart, m, 4, &code)
	c.postRows = grow(postRows, m, 4, &code)
	for i := n; i < len(rows); i++ {
		c.postRows[i] = uint32(i)
		c.postStart[len(p.vals)+1+i-n] = uint32(i + 1)
	}
	return c, dict, code
}

// valueBytes is the size of a value.Value, for extend's byte count.
const valueBytes = 40

// grow returns s extended by k elements: in place when its capacity has
// room, and otherwise in a copy with an eighth more room than it needs,
// whose bytes (size per element) it adds to *bytes.
func grow[E any](s []E, k int, size uint64, bytes *uint64) []E {
	n := len(s) + k
	if n <= cap(s) {
		return s[:n]
	}
	out := make([]E, n, n+n/8)
	copy(out, s)
	*bytes += size * uint64(cap(out))
	return out
}

// Len returns the number of encoded rows.
func (b *ColBlock) Len() int { return len(b.rows) }

// Row returns the tuple at dense row position i.
func (b *ColBlock) Row(i uint32) Tuple { return b.rows[i] }

// Code returns v's dictionary code in column col, or ok=false when the
// value does not occur in the column — in which case no row can match an
// equality against it and the caller short-circuits to zero candidates.
func (b *ColBlock) Code(col int, v value.Value) (uint32, bool) {
	return b.Column(col).Code(v)
}

// CodeAt returns the dictionary code of column col at row position row.
func (b *ColBlock) CodeAt(col int, row uint32) uint32 { return b.Column(col).CodeAt(row) }

// Postings returns the row positions whose column col holds the value
// with the given code, ascending. The slice aliases the block's CSR
// storage; callers must not mutate it.
func (b *ColBlock) Postings(col int, code uint32) []uint32 {
	return b.Column(col).Postings(code)
}

// DistinctCount returns the number of distinct values in column col: the
// dictionary's length, free once the column is encoded.
func (b *ColBlock) DistinctCount(col int) int { return len(b.Column(col).vals) }

// Code returns v's dictionary code, or ok=false when the value does not
// occur in the column.
func (c *Column) Code(v value.Value) (uint32, bool) { return c.code(v) }

// CodeAt returns the dictionary code at row position row.
func (c *Column) CodeAt(row uint32) uint32 { return uint32(c.codes[row]) }

// Postings returns the row positions holding the value with the given
// code, ascending. The slice aliases the column's CSR storage; callers
// must not mutate it.
func (c *Column) Postings(code uint32) []uint32 {
	return c.postRows[c.postStart[code]:c.postStart[code+1]]
}
