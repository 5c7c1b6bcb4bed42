package storage

import (
	"sync/atomic"

	"repro/internal/value"
)

// ColBlock is a dictionary-encoded columnar image of a relation's live
// tuples at one content generation. Each column stores its distinct
// values once in a dictionary (hash-indexed by an open-addressed table),
// a dense []uint32 code vector mapping row position to dictionary code,
// and a CSR posting list mapping code to row positions. The compiled
// evaluator (internal/eval) resolves constants to codes once per run,
// compares uint32 codes instead of value.Values in its probe/scan loops,
// and walks posting lists in place — no per-probe buffer copies, no
// locking, no allocation.
//
// A block is immutable after construction. On frozen snapshots it is
// cached forever; on mutable relations it is tagged with the content
// generation it was built from and dropped by the next mutation, so a
// stale block is never served (see Relation.ColumnarBlock).
type ColBlock struct {
	gen  uint64 // Relation.statsGen at build time (mutable sources only)
	rows []Tuple
	cols []colVec
}

// colVec is one column of a ColBlock: the column's value dictionary, a
// dense row -> code vector, and CSR posting lists.
type colVec struct {
	valueDict
	codes []uint32 // row -> code

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
	colDictBytes   atomic.Uint64 // approximate dictionary bytes built
	colCodeBytes   atomic.Uint64 // code-vector + posting-list bytes built
)

// ColumnarStats is a snapshot of the cumulative columnarization counters.
type ColumnarStats struct {
	BlocksBuilt           uint64 // columnar blocks constructed since process start
	SnapshotsColumnarized uint64 // frozen snapshot relations holding a block
	DictBytes             uint64 // cumulative dictionary bytes built
	CodeBytes             uint64 // cumulative code-vector and posting-list bytes built
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
// current contents. colMu serializes builders; the generation check after
// the build discards a block a concurrent mutation made stale before it
// was ever published. A stale block that slips past the final check (the
// mutation landing between check and store) is harmless: every reader
// re-validates blk.gen against the live generation.
func (r *Relation) buildColumnar() *ColBlock {
	r.colMu.Lock()
	defer r.colMu.Unlock()
	if blk := r.colBlk.Load(); blk != nil && (r.frozen || blk.gen == r.statsGen.Load()) {
		return blk
	}
	gen := r.statsGen.Load()

	r.rLock()
	rows := make([]Tuple, 0, r.live)
	for _, t := range r.rows.tuples {
		if t != nil {
			rows = append(rows, t)
		}
	}
	r.rUnlock()
	if len(rows) > maxColumnarRows {
		return nil
	}

	// Tuples are never mutated in place, so encoding proceeds without the
	// lock; the generation check below catches membership changes.
	blk := &ColBlock{gen: gen, rows: rows, cols: make([]colVec, r.schema.Arity())}
	var dictBytes, codeBytes uint64
	for col := range blk.cols {
		cv := &blk.cols[col]
		cv.codes = make([]uint32, len(rows))
		for i, t := range rows {
			cv.codes[i] = cv.codeOrAdd(t[col])
		}
		// CSR postings by counting sort: one pass for bucket sizes, a
		// prefix sum, one pass to scatter row ids in ascending order.
		cv.postStart = make([]uint32, len(cv.vals)+1)
		for _, c := range cv.codes {
			cv.postStart[c+1]++
		}
		for i := 1; i < len(cv.postStart); i++ {
			cv.postStart[i] += cv.postStart[i-1]
		}
		cv.postRows = make([]uint32, len(rows))
		next := make([]uint32, len(cv.vals))
		copy(next, cv.postStart[:len(cv.vals)])
		for i, c := range cv.codes {
			cv.postRows[next[c]] = uint32(i)
			next[c]++
		}
		dictBytes += cv.footprint()
		codeBytes += 4 * uint64(len(cv.codes)+len(cv.postRows)+len(cv.postStart))
	}

	if !r.frozen && r.statsGen.Load() != gen {
		return nil
	}
	r.colBlk.Store(blk)
	colBlocksBuilt.Add(1)
	colDictBytes.Add(dictBytes)
	colCodeBytes.Add(codeBytes)
	if r.frozen {
		colSnapshots.Add(1)
	}
	return blk
}

// Len returns the number of encoded rows.
func (b *ColBlock) Len() int { return len(b.rows) }

// Row returns the tuple at dense row position i.
func (b *ColBlock) Row(i uint32) Tuple { return b.rows[i] }

// Code returns v's dictionary code in column col, or ok=false when the
// value does not occur in the column — in which case no row can match an
// equality against it and the caller short-circuits to zero candidates.
func (b *ColBlock) Code(col int, v value.Value) (uint32, bool) {
	return b.cols[col].code(v)
}

// CodeAt returns the dictionary code of column col at row position row.
func (b *ColBlock) CodeAt(col int, row uint32) uint32 { return b.cols[col].codes[row] }

// Postings returns the row positions whose column col holds the value
// with the given code, ascending. The slice aliases the block's CSR
// storage; callers must not mutate it.
func (b *ColBlock) Postings(col int, code uint32) []uint32 {
	cv := &b.cols[col]
	return cv.postRows[cv.postStart[code]:cv.postStart[code+1]]
}

// DistinctCount returns the number of distinct values in column col — a
// free dictionary-length read.
func (b *ColBlock) DistinctCount(col int) int { return len(b.cols[col].vals) }

// AppendAll appends every encoded row's tuple to dst.
func (b *ColBlock) AppendAll(dst []Tuple) []Tuple { return append(dst, b.rows...) }

// AppendRows appends the tuples at the given row positions to dst.
func (b *ColBlock) AppendRows(dst []Tuple, rows []uint32) []Tuple {
	for _, i := range rows {
		dst = append(dst, b.rows[i])
	}
	return dst
}
