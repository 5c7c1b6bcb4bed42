package storage

import (
	"sync"
	"sync/atomic"

	"repro/internal/value"
)

// ColBlock is a dictionary-encoded columnar image of a relation's live
// tuples at one content generation. It keeps the rows and encodes each
// column only when a reader first asks for it (Column), so a block costs
// its row slice plus the columns plans actually compare: a column's
// distinct values stored once in a dictionary (hash-indexed by an
// open-addressed table), a dense code vector mapping row position to
// dictionary code, and a CSR posting list mapping code to row positions.
// The compiled evaluator (internal/eval) resolves each step's columns and
// constants once per run, compares uint32 codes instead of value.Values
// in its probe/scan loops, and walks posting lists in place — no
// per-probe buffer copies, no locking, no allocation.
//
// A block's rows never change. Each column is encoded at most once,
// under the block's lock, and published atomically; every relation
// sharing the block (a snapshot that adopted it) sees it. On frozen
// snapshots the block is cached forever; on mutable relations it is
// tagged with the content generation it was built from and dropped by
// the next mutation, so a stale block is never served (see
// Relation.ColumnarBlock).
type ColBlock struct {
	gen  uint64 // Relation.statsGen at build time (mutable sources only)
	rows []Tuple
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
}

// maxColumnarRows bounds the dense row count a block will encode; beyond
// it (far past anything the uint32 code/row vectors could mis-address)
// the relation simply stays on the row path.
const maxColumnarRows = 1 << 30

// columnarDemandThreshold is how many block requests a *mutable* relation
// must see — with no intervening mutation — before a block is built for
// it. The second request pays the O(rows × arity) build; write-heavy
// relations (incremental view maintenance mutates between every read)
// never cross the threshold and never pay it. Frozen snapshots build on
// first request: they can never be invalidated, so the build always
// amortizes.
const columnarDemandThreshold = 2

// Cumulative columnarization counters, exposed on /metrics.
var (
	colBlocksBuilt atomic.Uint64 // blocks built (mutable + frozen)
	colSnapshots   atomic.Uint64 // frozen relations that gained a block
	colDictBytes   atomic.Uint64 // approximate dictionary bytes of encoded columns
	colCodeBytes   atomic.Uint64 // code-vector + posting-list bytes of encoded columns
)

// ColumnarStats is a snapshot of the cumulative columnarization counters.
type ColumnarStats struct {
	BlocksBuilt           uint64 // columnar blocks constructed since process start
	SnapshotsColumnarized uint64 // frozen snapshot relations holding a block
	DictBytes             uint64 // cumulative dictionary bytes of encoded block columns
	CodeBytes             uint64 // cumulative code-vector and posting-list bytes of encoded block columns
}

// ColumnarUsage returns the process-wide columnarization counters.
func ColumnarUsage() ColumnarStats {
	return ColumnarStats{
		BlocksBuilt:           colBlocksBuilt.Load(),
		SnapshotsColumnarized: colSnapshots.Load(),
		DictBytes:             colDictBytes.Load(),
		CodeBytes:             colCodeBytes.Load(),
	}
}

// ColumnarBlock returns the relation's current columnar block, or nil when
// the relation is served by the row path. Frozen snapshots build their
// block on first request and keep it forever. Mutable relations build one
// after columnarDemandThreshold requests with no intervening mutation and
// drop it on the next mutation — so read-hot relations (materialized
// views, benchmark heads) get code-compare joins while write-hot ones
// never pay a build they would immediately discard.
func (r *Relation) ColumnarBlock() *ColBlock {
	if blk := r.colBlk.Load(); blk != nil && (r.frozen || blk.gen == r.statsGen.Load()) {
		return blk
	}
	if !r.frozen && r.colDemand.Add(1) < columnarDemandThreshold {
		return nil
	}
	return r.buildColumnar()
}

// EnsureColumnar builds the relation's columnar block immediately,
// bypassing the demand threshold, and returns it (nil only if a
// concurrent mutation raced the build or the relation is too large).
func (r *Relation) EnsureColumnar() *ColBlock {
	if blk := r.colBlk.Load(); blk != nil && (r.frozen || blk.gen == r.statsGen.Load()) {
		return blk
	}
	return r.buildColumnar()
}

// buildColumnar constructs and publishes a block for the relation's
// current contents: the live rows, with no column encoded yet. colMu
// serializes builders; the generation check after reading the rows
// discards a block a concurrent mutation made stale before it was ever
// published. A stale block that slips past the final check (the mutation
// landing between check and store) is harmless: every reader
// re-validates blk.gen against the live generation.
func (r *Relation) buildColumnar() *ColBlock {
	r.colMu.Lock()
	defer r.colMu.Unlock()
	if blk := r.colBlk.Load(); blk != nil && (r.frozen || blk.gen == r.statsGen.Load()) {
		return blk
	}
	gen := r.statsGen.Load()

	// A frozen relation's row slice is never written again (its source
	// detaches before writing), so a block over one without holes shares
	// it; any other block copies the live rows.
	r.rLock()
	rows := r.rows.tuples
	if !r.frozen || r.live != len(rows) {
		rows = make([]Tuple, 0, r.live)
		for _, t := range r.rows.tuples {
			if t != nil {
				rows = append(rows, t)
			}
		}
	}
	r.rUnlock()
	if len(rows) > maxColumnarRows {
		return nil
	}
	if !r.frozen && r.statsGen.Load() != gen {
		return nil
	}
	blk := &ColBlock{gen: gen, rows: rows, cols: make([]atomic.Pointer[Column], r.schema.Arity())}
	r.colBlk.Store(blk)
	colBlocksBuilt.Add(1)
	if r.frozen {
		colSnapshots.Add(1)
	}
	return blk
}

// Column returns column col's encoding, building it on first use. Tuples
// are never mutated in place, so the rows a block holds stay valid to
// encode for as long as the block lives.
func (b *ColBlock) Column(col int) *Column {
	if c := b.cols[col].Load(); c != nil {
		return c
	}
	return b.encode(col)
}

// encode builds and publishes column col's encoding unless a concurrent
// reader already did.
func (b *ColBlock) encode(col int) *Column {
	b.mu.Lock()
	defer b.mu.Unlock()
	if c := b.cols[col].Load(); c != nil {
		return c
	}
	c := &Column{codes: make([]int32, len(b.rows))}
	c.valueDict = encodeColumn(b.rows, col, c.codes)
	// CSR postings by counting sort: count each code's rows, turn the
	// counts into bucket ends, then scatter the rows from the back, moving
	// each bucket's end down to its start. Buckets come out ascending, and
	// no cursor array is needed.
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
	b.cols[col].Store(c)
	colDictBytes.Add(c.footprint())
	colCodeBytes.Add(4 * uint64(len(c.codes)+len(c.postRows)+len(c.postStart)))
	return c
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

// AppendAll appends every encoded row's tuple to dst.
func (b *ColBlock) AppendAll(dst []Tuple) []Tuple { return append(dst, b.rows...) }

// AppendRows appends the tuples at the given row positions to dst.
func (b *ColBlock) AppendRows(dst []Tuple, rows []uint32) []Tuple {
	for _, i := range rows {
		dst = append(dst, b.rows[i])
	}
	return dst
}

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
