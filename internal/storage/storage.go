// Package storage implements the in-memory relational store that underpins
// the data-citation engine. It provides set-semantics relations with
// optional hash indexes per column, bulk loading, and a Database that binds
// relation instances to a schema.
//
// The store is deliberately simple — the paper's computational content is in
// query rewriting and annotation propagation, not storage — but it is
// complete enough to support the evaluation engine's index-nested-loop
// joins, cardinality statistics for cost estimation, and copy-on-write
// snapshots for the fixity subsystem.
//
// Storage is flat: no path renders a tuple to a string to store or find
// it. A relation keeps its rows in a TupleIndex, an open-addressed table
// over row positions that answers membership by content and backs cloned
// rows with shared arena chunks. The evaluator shares the TupleIndex for
// deduplication, and a materialized view is loaded from its owned answer
// in one call (InsertOwned), without a clone per row.
//
// A relation has one access structure, chosen by whether it can change.
// A mutable relation is read through its column indexes — the column's
// value dictionary with per-value and per-row chains through the row
// positions — which every write keeps current, and counts distinct values
// through an index or a throwaway table of row positions, memoized until
// the next write. A frozen relation is read through its columnar block
// (ColBlock), whose dictionaries also answer its distinct counts. The
// block is built on first request and kept while the relation is among
// the maxBlocks relations the block set holds; a relation evicted from
// the set builds it again from the same rows on its next read. A
// snapshot whose source only appended since its previous snapshot
// encodes a column by extending that snapshot's, so versions share
// encoded columns as they share rows.
//
// Concurrency model (see DESIGN.md §3): every Relation is safe for
// concurrent readers and writers via an internal RWMutex. Snapshot produces
// a frozen relation that reads a prefix of its source's append-only row
// slice; frozen relations are immutable from birth, so their readers skip
// locking entirely. The source appends past the prefix and copies the row
// slice only before the first delete after a snapshot, so a snapshot is
// O(1) and a version costs the rows it added, no matter how large the data
// is. A relation that has not changed since its last snapshot hands out
// that same frozen object again, so versions share unchanged relations.
package storage

import (
	"fmt"
	"iter"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"weak"

	"repro/internal/schema"
	"repro/internal/value"
)

// Tuple is an ordered list of values matching a relation schema.
type Tuple []value.Value

// Equal reports element-wise equality of two tuples.
func (t Tuple) Equal(u Tuple) bool {
	if len(t) != len(u) {
		return false
	}
	for i := range t {
		if t[i] != u[i] {
			return false
		}
	}
	return true
}

// Compare orders tuples lexicographically by value.Compare.
func (t Tuple) Compare(u Tuple) int {
	n := len(t)
	if len(u) < n {
		n = len(u)
	}
	for i := 0; i < n; i++ {
		if c := t[i].Compare(u[i]); c != 0 {
			return c
		}
	}
	switch {
	case len(t) < len(u):
		return -1
	case len(t) > len(u):
		return 1
	}
	return 0
}

// Key renders the tuple as a canonical string usable as a map key.
func (t Tuple) Key() string {
	var buf [64]byte
	return string(t.AppendKey(buf[:0]))
}

// AppendKey appends the tuple's canonical rendering — the bytes Key
// returns — to dst and returns the extended slice: per value, its kind
// digit and value.String rendering, separated by 0x1f. Digests render
// every tuple into one reused buffer through it.
func (t Tuple) AppendKey(dst []byte) []byte {
	for i, v := range t {
		if i > 0 {
			dst = append(dst, '\x1f')
		}
		dst = append(dst, byte('0'+v.Kind()))
		switch v.Kind() {
		case value.KindString:
			dst = append(dst, v.Str()...)
		case value.KindInt:
			dst = strconv.AppendInt(dst, v.IntVal(), 10)
		case value.KindFloat:
			dst = strconv.AppendFloat(dst, v.FloatVal(), 'g', -1, 64)
		case value.KindTime:
			dst = v.TimeVal().UTC().AppendFormat(dst, time.RFC3339Nano)
		default:
			dst = append(dst, v.String()...)
		}
	}
	return dst
}

// Clone returns an independent copy of the tuple.
func (t Tuple) Clone() Tuple {
	out := make(Tuple, len(t))
	copy(out, t)
	return out
}

// String renders the tuple as (v1, v2, ...).
func (t Tuple) String() string {
	parts := make([]string, len(t))
	for i, v := range t {
		parts[i] = v.Quote()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// Relation is a set-semantics collection of tuples conforming to a schema.
// A mutable relation builds hash indexes per column on demand; a frozen
// snapshot (see Snapshot) is read through its columnar block instead,
// without any locking. It is safe for concurrent use.
type Relation struct {
	schema *schema.Relation

	mu     sync.RWMutex
	frozen bool // immutable snapshot: set at construction, never cleared

	// rows holds the tuples by row position — rows.Tuple(i) is row i,
	// nil once deleted. On a mutable relation it also answers membership
	// by content; a frozen one holds only its prefix of the source's rows
	// and row hashes, with no probe table (see members). live counts the
	// rows that are not nil. indexes[col] is a mutable relation's hash
	// index on column col, nil if none was built; the slice is nil until
	// the first build, and always on a frozen relation.
	rows    TupleIndex
	live    int
	indexes []*colIndex

	// Statistics cache for the query planner on relations without a
	// columnar block. distinct memoizes per-column distinct counts (-1 =
	// not computed yet); it is dropped on every content mutation (Insert,
	// Delete, InsertBatch, InsertOwned, DeleteBatch). statsMu is separate
	// from mu so a frozen relation past maxColumnarRows — whose readers
	// skip mu entirely — can still fill the cache; it is never held while
	// acquiring mu. statsGen is atomic so Generation reads it without a
	// lock.
	statsMu  sync.Mutex
	statsGen atomic.Uint64
	distinct []int

	// A frozen relation's columnar block (see columnar.go) and membership
	// table (see members), each built on first request under colMu;
	// always nil on a mutable one. The membership table is kept for
	// life. The block is kept while the block set holds the relation
	// (admitBlock), which evicts it past maxBlocks relations, and it is
	// built again on the next read; colSeen is the relation's visited
	// bit in that set.
	colBlk  atomic.Pointer[ColBlock]
	colSeen atomic.Bool
	member  atomic.Pointer[TupleIndex]
	colMu   sync.Mutex

	// ascends memoizes RowsAscend on a frozen relation: 0 until first
	// asked, then rowsAscend or rowsOutOfOrder. order memoizes its
	// canonical order when the rows do not ascend (see canonicalOrder).
	// Both stay empty on a mutable one.
	ascends atomic.Uint32
	order   atomic.Pointer[[]int32]

	// Snapshot reuse. On a mutable relation, snap is the last frozen
	// snapshot handed out and snapGen the content generation it froze
	// (both guarded by mu): while statsGen still equals snapGen, Snapshot
	// returns snap again. appended says the relation has only appended
	// since snap was taken: no delete and no compaction. On a frozen
	// relation, stamp is its creation stamp (see Stamp), 0 on mutable
	// relations, and prev its predecessor: the source's previous
	// snapshot, when the source only appended since it and neither has
	// holes, so its rows are a prefix of this one's, position by
	// position. The pointer is weak, so a version keeps no older one
	// alive; its block's columns and RowsAscend extend the predecessor's.
	snap     *Relation
	snapGen  uint64
	appended bool
	stamp    uint64
	prev     weak.Pointer[Relation]
}

// snapStamps draws the creation stamps of frozen snapshots.
var snapStamps atomic.Uint64

// NewRelation creates an empty relation instance for the given schema.
func NewRelation(rs *schema.Relation) *Relation {
	return &Relation{schema: rs}
}

// Schema returns the relation's schema.
func (r *Relation) Schema() *schema.Relation { return r.schema }

// Frozen reports whether the relation is an immutable snapshot.
func (r *Relation) Frozen() bool { return r.frozen }

// rLock acquires the read lock unless the relation is frozen (immutable
// from birth, so lock-free reads are safe). Callers must pair it with
// rUnlock.
func (r *Relation) rLock() {
	if !r.frozen {
		//lint:lockscope lock-handoff helper: callers pair rLock with rUnlock
		r.mu.RLock()
	}
}

func (r *Relation) rUnlock() {
	if !r.frozen {
		r.mu.RUnlock()
	}
}

// wLock acquires the write lock and panics if the relation is a frozen
// snapshot. Callers must pair it with r.mu.Unlock.
func (r *Relation) wLock() {
	if r.frozen {
		panic(fmt.Sprintf("storage: relation %s: write to frozen snapshot", r.schema.Name))
	}
	//lint:lockscope lock-handoff helper: callers pair wLock with r.mu.Unlock
	r.mu.Lock()
}

// Snapshot returns an immutable view of the relation's current contents.
// The snapshot holds a capped prefix of the source's row slice and row
// hashes, so creation is O(1) and copies nothing. The source only ever
// appends past that prefix, and copies the row slice before the first
// delete after a snapshot (removeLocked), so no write reaches it. The
// snapshot shares no probe table, index or block: it builds its own
// membership table and columnar block when they are first read.
// Snapshots of a snapshot return the receiver.
//
// While the source's content has not mutated since the previous snapshot
// (index builds, compaction and no-op writes do not count), Snapshot
// returns that same frozen object, so committed versions share every
// unchanged relation — its columnar block included — instead of holding
// one copy per version.
func (r *Relation) Snapshot() *Relation {
	if r.frozen {
		return r
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	// mu is held, so the generation cannot move under the check below.
	gen := r.statsGen.Load()
	if r.snap != nil && r.snapGen == gen {
		return r.snap
	}
	n := r.rows.Len()
	rows := TupleIndex{tuples: r.rows.tuples[:n:n], hashes: r.rows.hashes[:n:n]}
	snap := &Relation{schema: r.schema, frozen: true, rows: rows, live: r.live, stamp: snapStamps.Add(1)}
	// With no delete since the last snapshot, a source without holes now
	// had none then either, and only appended past its rows.
	if r.snap != nil && r.appended && r.live == n {
		snap.prev = weak.Make(r.snap)
	}
	r.snap, r.snapGen, r.appended = snap, gen, true
	return snap
}

// Stamp returns a frozen relation's creation stamp: a process-wide
// counter value drawn when Snapshot created it, never 0. Snapshot hands
// out a new frozen object, and so a new stamp, only when the source's
// content changed, so two versions of a relation carry the same stamp
// exactly when they are the same object. Successive snapshots of one
// source carry increasing stamps. Mutable relations report 0.
func (r *Relation) Stamp() uint64 { return r.stamp }

// Len returns the number of live tuples.
func (r *Relation) Len() int {
	r.rLock()
	defer r.rUnlock()
	return r.live
}

// Insert adds a tuple; it is a no-op (returning false) if an equal tuple is
// already present. It returns an error if the arity or kinds mismatch the
// schema, and panics if the relation is a frozen snapshot. Tuples are
// equal when their Keys are: floats compare by bit pattern, so 0 and -0
// are distinct tuples, and all NaNs are one value.
func (r *Relation) Insert(t Tuple) (bool, error) {
	if err := r.checkTuple(t); err != nil {
		return false, err
	}
	r.wLock()
	defer r.mu.Unlock()
	if !r.insertLocked(t, true) {
		return false, nil
	}
	r.live++
	r.bumpStats()
	return true, nil
}

// insertLocked adds t as the next row unless an equal tuple is present —
// cloned into the row arena, or retained as is when the caller hands it
// over — and chains it into every index. It reports whether t was added;
// the caller counts the row live and bumps the statistics generation.
// Called with mu held for writing.
func (r *Relation) insertLocked(t Tuple, clone bool) bool {
	// Amortized hole reclamation: if deletions have left more holes than
	// live tuples, compact before growing the row slice further.
	if holes := r.rows.Len() - r.live; holes > 64 && holes > r.live {
		r.compactLocked()
	}
	row, added := r.rows.insert(t, clone)
	if !added {
		return false
	}
	for col, ix := range r.indexes {
		if ix != nil {
			ix.add(row, t[col])
		}
	}
	return true
}

// bumpStats advances the content generation and drops the distinct-count
// memo after a content mutation. Called with mu held; statsMu is acquired
// on its own (no lock cycle: statsMu is never held while acquiring mu).
func (r *Relation) bumpStats() {
	r.statsMu.Lock()
	r.statsGen.Add(1)
	r.distinct = nil
	r.statsMu.Unlock()
}

// Check validates a tuple against the relation schema (arity and value
// kinds) without touching the data. The durable layer calls it before a
// batch is journaled, so the commit log never records a tuple the
// relation would reject on replay.
func (r *Relation) Check(t Tuple) error { return r.checkTuple(t) }

// Generation returns a counter that advances on every content mutation
// (and never otherwise — index builds, snapshots and statistics reads
// leave it alone). The durable layer compares generations to detect
// head mutations that bypassed the journaled API: journaling a commit
// whose contents the log cannot reproduce would make the directory
// unrecoverable, so such a commit must be refused up front.
func (r *Relation) Generation() uint64 {
	return r.statsGen.Load()
}

// InsertBatch inserts a batch of tuples under one lock acquisition,
// returning how many were actually added (duplicates are no-ops, exactly
// as in Insert). The whole batch is validated first: on a schema
// mismatch nothing is inserted. This is the bulk path used by network
// ingest and log replay.
func (r *Relation) InsertBatch(ts []Tuple) (int, error) {
	if err := r.checkBatch(ts); err != nil {
		return 0, err
	}
	if len(ts) == 0 {
		return 0, nil
	}
	r.wLock()
	defer r.mu.Unlock()
	added := 0
	for _, t := range ts {
		if r.insertLocked(t, true) {
			r.live++
			added++
		}
	}
	if added > 0 {
		r.bumpStats()
	}
	return added, nil
}

// InsertOwned is InsertBatch for tuples the caller hands over: the
// relation retains them instead of cloning them, so they must never be
// mutated afterwards. An empty relation also takes ts's backing array as
// its row slice, so the caller must not use ts after the call either.
// This is the bulk load that materializes a view from the evaluator's
// answer in one call.
func (r *Relation) InsertOwned(ts []Tuple) (int, error) {
	if err := r.checkBatch(ts); err != nil {
		return 0, err
	}
	if len(ts) == 0 {
		return 0, nil
	}
	r.wLock()
	defer r.mu.Unlock()
	adopted := r.rows.Len() == 0
	if adopted {
		r.rows.adopt(ts)
	}
	added := 0
	for _, t := range ts {
		if r.insertLocked(t, false) {
			r.live++
			added++
		}
	}
	if adopted {
		// Slots past the loaded rows still point at the duplicates.
		clear(ts[added:])
	}
	if added > 0 {
		r.bumpStats()
	}
	return added, nil
}

// checkBatch validates every tuple of a batch against the schema.
func (r *Relation) checkBatch(ts []Tuple) error {
	for _, t := range ts {
		if err := r.checkTuple(t); err != nil {
			return err
		}
	}
	return nil
}

// DeleteBatch removes a batch of tuples under one lock acquisition,
// returning how many were present (and therefore removed). Tuples are
// validated against the schema first so replayed deletions fail loudly
// rather than silently matching nothing.
func (r *Relation) DeleteBatch(ts []Tuple) (int, error) {
	if err := r.checkBatch(ts); err != nil {
		return 0, err
	}
	if len(ts) == 0 {
		return 0, nil
	}
	r.wLock()
	defer r.mu.Unlock()
	removed := 0
	for _, t := range ts {
		if r.removeLocked(t) {
			removed++
		}
	}
	if removed > 0 {
		r.live -= removed
		r.bumpStats()
	}
	return removed, nil
}

// MustInsert inserts and panics on schema mismatch; duplicate inserts are
// silently ignored. Intended for generators and tests.
func (r *Relation) MustInsert(vals ...value.Value) {
	if _, err := r.Insert(Tuple(vals)); err != nil {
		panic(err)
	}
}

// Delete removes a tuple if present, returning whether it was removed.
// Deletion leaves a hole in the row slice (nil tuple) so index entries
// can be skipped cheaply; Compact reclaims space.
func (r *Relation) Delete(t Tuple) bool {
	r.wLock()
	defer r.mu.Unlock()
	if !r.removeLocked(t) {
		return false
	}
	r.live--
	r.bumpStats()
	return true
}

// removeLocked clears t's row to a nil hole and reports whether t was
// present; the caller counts the row out and bumps the statistics
// generation. Its probe-table entry stays behind as a tombstone that
// lookups step over, until the next rehash drops it. Called with mu held
// for writing.
//
//lint:nobump the caller counts the removed row out of live and bumps
func (r *Relation) removeLocked(t Tuple) bool {
	id, ok := r.rows.Get(t)
	if !ok {
		return false
	}
	// When the last snapshot holds a prefix of the row slice, the first
	// delete after it copies the slice before clearing a slot. No older
	// snapshot can hold the slice without the last one: a copied,
	// compacted or outgrown slice is replaced by a fresh one, never
	// handed back.
	if s := r.snap; s != nil && len(s.rows.tuples) > 0 && &s.rows.tuples[0] == &r.rows.tuples[0] {
		r.rows.tuples = slices.Clone(r.rows.tuples)
	}
	r.rows.tuples[id] = nil
	r.appended = false
	return true
}

// Contains reports whether the relation holds the tuple. A frozen
// relation answers through its membership table (members).
func (r *Relation) Contains(t Tuple) bool {
	if r.frozen {
		_, ok := r.members().Get(t)
		return ok
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	_, ok := r.rows.Get(t)
	return ok
}

// members returns a frozen relation's membership table: a probe table
// over its own rows and row hashes, built from the hashes on first
// request and kept for life. A snapshot does not copy its source's
// table, which the source keeps writing.
func (r *Relation) members() *TupleIndex {
	if ix := r.member.Load(); ix != nil {
		return ix
	}
	r.colMu.Lock()
	defer r.colMu.Unlock()
	if ix := r.member.Load(); ix != nil {
		return ix
	}
	ix := &TupleIndex{tuples: r.rows.tuples, hashes: r.rows.hashes}
	ix.rehash(tableSize(r.live))
	r.member.Store(ix)
	return ix
}

// Diff returns the batches that turn old into r: replayed on a relation
// holding old's live rows in old's row order, deleting del and then
// inserting ins leaves r's live rows in r's row order. So a replay
// rebuilds r's row order too, on which its digest (where Tuple.Compare
// ties) and its identity views' answer order depend. old is a frozen
// relation, or nil for the empty relation.
//
// When r's rows extend old's position by position (the same tuple object,
// or a hole in both), as they do when old is an earlier snapshot of r's
// source with no delete in between, the diff is the live rows past them,
// found with no membership test. Otherwise old's membership table
// locates r's live rows in old: the longest prefix of them that old holds
// in the same order stays, every other row of old is deleted, and every
// later row of r is inserted, a row deleted and inserted again included.
func (r *Relation) Diff(old *Relation) (del, ins []Tuple) {
	var prev []Tuple
	if old != nil {
		if !old.frozen {
			panic(fmt.Sprintf("storage: relation %s: diff from a mutable relation", old.schema.Name))
		}
		prev = old.rows.tuples
	}
	r.rLock()
	defer r.rUnlock()
	rows := r.rows.tuples
	if extends(rows, prev) {
		return nil, appendLive(nil, rows[len(prev):])
	}
	// kept holds the old positions of the rows that stay, ascending;
	// r's rows from stop on are inserted.
	ix := old.members()
	var kept []int
	stop := len(rows)
	for i, t := range rows {
		if t == nil {
			continue
		}
		id, ok := ix.Get(t)
		if !ok || len(kept) > 0 && id <= kept[len(kept)-1] {
			stop = i
			break
		}
		kept = append(kept, id)
	}
	ins = appendLive(nil, rows[stop:])
	for i, t := range prev {
		if len(kept) > 0 && kept[0] == i {
			kept = kept[1:]
		} else if t != nil {
			del = append(del, t)
		}
	}
	return del, ins
}

// extends reports whether rows extend prefix position by position: each
// of prefix's positions holds the same tuple object in rows, or a hole in
// both. Tuples are never mutated in place, so the same object holds the
// same values, and rows' first len(prefix) positions hold exactly
// prefix's tuples.
func extends(rows, prefix []Tuple) bool {
	if len(prefix) > len(rows) {
		return false
	}
	for i, t := range prefix {
		u := rows[i]
		if len(t) != len(u) || (t == nil) != (u == nil) || len(t) > 0 && &t[0] != &u[0] {
			return false
		}
	}
	return true
}

// appendLive appends the rows that are not holes to dst.
func appendLive(dst, rows []Tuple) []Tuple {
	for _, t := range rows {
		if t != nil {
			dst = append(dst, t)
		}
	}
	return dst
}

// Compact rebuilds internal storage after deletions, dropping holes and
// rebuilding all indexes.
func (r *Relation) Compact() {
	r.wLock()
	defer r.mu.Unlock()
	r.compactLocked()
}

// compactLocked squeezes deletion holes out of the row slice and rebuilds
// the indexes over the new row positions.
//
//lint:nobump content-preserving rewrite: same live tuples, fresh backing storage; callers bump when the content changed
func (r *Relation) compactLocked() {
	r.rows = r.rows.compacted(r.live)
	r.appended = false
	for col, ix := range r.indexes {
		if ix != nil {
			r.indexes[col] = newColIndex(r.rows.tuples, col)
		}
	}
}

// BuildIndex constructs (or rebuilds) a hash index on the given column.
func (r *Relation) BuildIndex(col int) {
	r.wLock()
	defer r.mu.Unlock()
	r.buildIndexLocked(col)
}

func (r *Relation) buildIndexLocked(col int) {
	if r.indexes == nil {
		r.indexes = make([]*colIndex, r.schema.Arity())
	}
	r.indexes[col] = newColIndex(r.rows.tuples, col)
}

// index returns the hash index on column col, or nil. Callers hold mu
// (or read a frozen relation).
func (r *Relation) index(col int) *colIndex {
	if col < 0 || col >= len(r.indexes) {
		return nil
	}
	return r.indexes[col]
}

// EnsureIndex builds a hash index on the column of a mutable relation if
// one does not exist yet, reporting whether an index is available
// afterwards. A frozen relation has no index and reports false: it serves
// probes through its columnar block (ColumnarBlock) instead. The query
// planner calls this for the probe columns it selects.
func (r *Relation) EnsureIndex(col int) bool {
	if r.frozen {
		return false
	}
	if !r.HasIndex(col) {
		r.BuildIndex(col)
	}
	return true
}

// HasIndex reports whether a hash index exists on the column.
func (r *Relation) HasIndex(col int) bool {
	r.rLock()
	defer r.rUnlock()
	return r.index(col) != nil
}

// Lookup returns the live tuples whose column col equals v, using the index
// if present and scanning otherwise.
func (r *Relation) Lookup(col int, v value.Value) []Tuple {
	return r.AppendLookup(nil, col, v)
}

// AppendLookup appends the live tuples whose column col equals v to dst and
// returns the extended slice, using the index if present and scanning
// otherwise; either way the tuples come in row order and equality is ==
// (0 matches -0, NaN matches nothing). It is Lookup with a caller-provided
// buffer: the compiled-plan evaluator reuses one buffer per join depth,
// so a warm plan probes without allocating. The appended tuples remain
// valid after the call (tuples are never mutated in place).
func (r *Relation) AppendLookup(dst []Tuple, col int, v value.Value) []Tuple {
	r.rLock()
	defer r.rUnlock()
	rows := r.rows.tuples
	if ix := r.index(col); ix != nil {
		for i := ix.first(v); i >= 0; i = ix.next[i] {
			if t := rows[i]; t != nil {
				dst = append(dst, t)
			}
		}
		return dst
	}
	for _, t := range rows {
		if t != nil && t[col] == v {
			dst = append(dst, t)
		}
	}
	return dst
}

// AppendTuples appends every live tuple to dst (insertion order) and
// returns the extended slice — Tuples with a caller-provided buffer.
func (r *Relation) AppendTuples(dst []Tuple) []Tuple {
	r.rLock()
	defer r.rUnlock()
	return appendLive(dst, r.rows.tuples)
}

// Scan invokes fn for every live tuple; fn returning false stops the scan.
// fn must not mutate the relation (the scan holds the read lock).
func (r *Relation) Scan(fn func(Tuple) bool) {
	r.rLock()
	defer r.rUnlock()
	for _, t := range r.rows.tuples {
		if t == nil {
			continue
		}
		if !fn(t) {
			return
		}
	}
}

// Tuples returns a snapshot slice of all live tuples in insertion order.
func (r *Relation) Tuples() []Tuple {
	r.rLock()
	defer r.rUnlock()
	return appendLive(make([]Tuple, 0, r.live), r.rows.tuples)
}

// SortedTuples returns all live tuples in canonical (lexicographic) order,
// for deterministic output in tests and formatters.
func (r *Relation) SortedTuples() []Tuple {
	out := r.Tuples()
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}

// SortedScan invokes fn for every live tuple in the order SortedTuples
// lists them, ties included; fn returning false stops the scan. A frozen
// relation reads its rows in place, in its memoized canonical order
// (canonicalOrder), so only its first scan sorts, and not even that when
// its rows ascend. A mutable relation sorts a copy on every call.
func (r *Relation) SortedScan(fn func(Tuple) bool) {
	if !r.frozen {
		for _, t := range r.SortedTuples() {
			if !fn(t) {
				return
			}
		}
		return
	}
	order := r.canonicalOrder()
	if order == nil {
		r.Scan(fn)
		return
	}
	for _, i := range order {
		if !fn(r.rows.tuples[i]) {
			return
		}
	}
}

// canonicalOrder returns a frozen relation's canonical order: nil when its
// rows ascend (RowsAscend), since then row order is canonical, and
// otherwise its live row positions in exactly the order SortedTuples
// lists their tuples. SortedTuples sorts the live rows in row order with
// sort.Slice; sorting their positions, in the same order, with the same
// comparator makes the same comparisons and the same swaps, so the two
// agree even where Compare ties (0 and -0) or is intransitive (NaN).
// Sorted on first request and kept for life, as RowsAscend is; racing
// first callers compute the same order.
func (r *Relation) canonicalOrder() []int32 {
	if r.RowsAscend() {
		return nil
	}
	if o := r.order.Load(); o != nil {
		return *o
	}
	rows := r.rows.tuples
	order := make([]int32, 0, r.live)
	for i, t := range rows {
		if t != nil {
			order = append(order, int32(i))
		}
	}
	sort.Slice(order, func(i, j int) bool { return rows[order[i]].Compare(rows[order[j]]) < 0 })
	r.order.Store(&order)
	return order
}

// Values of Relation.ascends.
const (
	rowsAscend = 1 + iota
	rowsOutOfOrder
)

// RowsAscend reports whether the live rows, in scan order, are Ascending:
// then they list the relation's tuples in the order sorting them gives.
// A frozen relation scans once and keeps the answer for life; a mutable
// one scans on every call, so the answer follows its writes. A frozen
// relation whose predecessor (see Snapshot) has its answer extends it:
// out of order stays out of order, and rows past an ascending prefix
// are tested from the prefix's last row on, the seam included.
func (r *Relation) RowsAscend() bool {
	if a := r.ascends.Load(); a != 0 {
		return a == rowsAscend
	}
	if !r.frozen {
		return Ascending(r.Scan)
	}
	ok := false
	switch p := r.prev.Value(); {
	case p == nil || p.ascends.Load() == 0:
		ok = Ascending(r.Scan)
	case p.ascends.Load() == rowsAscend:
		ok = Ascending(slices.Values(r.rows.tuples[max(len(p.rows.tuples)-1, 0):]))
	}
	a := uint32(rowsOutOfOrder)
	if ok {
		a = rowsAscend
	}
	r.ascends.Store(a)
	return ok
}

// Ascending reports whether rows strictly ascend under Tuple.Compare and
// hold no NaN: then sorting them, in any order, gives this sequence and
// only it. A NaN compares equal to every float, which makes Compare
// intransitive: rows can ascend pairwise yet sort differently. Two rows
// that compare equal (0 and -0) keep an order that depends on the sort's
// input.
func Ascending(rows iter.Seq[Tuple]) bool {
	var prev Tuple
	for t := range rows {
		if prev != nil && prev.Compare(t) >= 0 || hasNaN(t) {
			return false
		}
		prev = t
	}
	return true
}

// hasNaN reports whether t holds a NaN. It is a plain loop, so isNaN
// inlines: Ascending runs it on every row of every frozen relation a
// digest or an identity view reads.
func hasNaN(t Tuple) bool {
	for i := range t {
		if isNaN(t[i]) {
			return true
		}
	}
	return false
}

func isNaN(v value.Value) bool { return v.Kind() == value.KindFloat && math.IsNaN(v.FloatVal()) }

// DistinctCount returns the number of distinct values in column col, where
// values are distinct unless == says otherwise (0 and -0 count once, each
// NaN counts on its own). It is used by the schema-level citation-size
// estimator and by the query planner's selectivity estimates. A frozen
// relation answers with its block column's dictionary length, exact by
// construction; the first read encodes the column, which costs nothing
// extra, because the planner asks only about columns its plan then probes
// or checks. A mutable relation counts, and memoizes the count until its
// next content mutation.
func (r *Relation) DistinctCount(col int) int {
	if blk := r.ColumnarBlock(); blk != nil {
		return blk.DistinctCount(col)
	}
	r.statsMu.Lock()
	if r.distinct != nil && r.distinct[col] >= 0 {
		n := r.distinct[col]
		r.statsMu.Unlock()
		return n
	}
	gen := r.statsGen.Load()
	r.statsMu.Unlock()

	n := r.distinctCount(col)

	// Store only if no mutation landed while we computed, so a stale count
	// can never mask newer contents.
	r.statsMu.Lock()
	if r.statsGen.Load() == gen {
		if r.distinct == nil {
			r.distinct = make([]int, r.schema.Arity())
			for i := range r.distinct {
				r.distinct[i] = -1
			}
		}
		r.distinct[col] = n
	}
	r.statsMu.Unlock()
	return n
}

// distinctCount computes the distinct count uncached: from the column's
// index when there is one, otherwise through a table of row positions.
func (r *Relation) distinctCount(col int) int {
	r.rLock()
	defer r.rUnlock()
	if ix := r.index(col); ix != nil {
		return ix.distinct(r.rows.tuples)
	}
	return distinctRows(r.rows.tuples, col, r.live)
}

// Clone returns a deep copy of the relation (tuples are shared, which is
// safe because tuples are never mutated in place). Unlike Snapshot, the
// copy is mutable and fully independent.
func (r *Relation) Clone() *Relation {
	out := NewRelation(r.schema)
	var cols []int
	r.rLock()
	out.rows = r.rows.compacted(r.live)
	out.live = r.live
	for col, ix := range r.indexes {
		if ix != nil {
			cols = append(cols, col)
		}
	}
	r.rUnlock()
	for _, col := range cols {
		out.buildIndexLocked(col)
	}
	return out
}

func (r *Relation) checkTuple(t Tuple) error {
	if len(t) != r.schema.Arity() {
		return fmt.Errorf("storage: relation %s: tuple arity %d, want %d", r.schema.Name, len(t), r.schema.Arity())
	}
	for i, v := range t {
		if v.Kind() != r.schema.Attributes[i].Kind {
			return fmt.Errorf("storage: relation %s: attribute %s: kind %s, want %s",
				r.schema.Name, r.schema.Attributes[i].Name, v.Kind(), r.schema.Attributes[i].Kind)
		}
	}
	return nil
}

// Database binds relation instances to a schema. It is safe for concurrent
// readers and writers; Snapshot produces immutable versions for the fixity
// layer.
type Database struct {
	frozen    bool
	schema    *schema.Schema
	relations map[string]*Relation
}

// NewDatabase creates a database with one empty relation instance per
// schema relation.
func NewDatabase(s *schema.Schema) *Database {
	db := &Database{schema: s, relations: make(map[string]*Relation, s.Len())}
	for _, name := range s.Names() {
		db.relations[name] = NewRelation(s.Relation(name))
	}
	return db
}

// Schema returns the database schema.
func (db *Database) Schema() *schema.Schema { return db.schema }

// Frozen reports whether the database is an immutable snapshot.
func (db *Database) Frozen() bool { return db.frozen }

// Relation returns the named relation instance, or nil. The relation map is
// fixed at construction, so no locking is needed.
func (db *Database) Relation(name string) *Relation {
	return db.relations[name]
}

// Insert adds a tuple to the named relation.
func (db *Database) Insert(relation string, vals ...value.Value) error {
	if db.frozen {
		return fmt.Errorf("storage: insert into %s: database snapshot is immutable", relation)
	}
	r, ok := db.relations[relation]
	if !ok {
		return fmt.Errorf("storage: unknown relation %s", relation)
	}
	_, err := r.Insert(Tuple(vals))
	return err
}

// Delete removes a tuple from the named relation, reporting whether it was
// present.
func (db *Database) Delete(relation string, vals ...value.Value) (bool, error) {
	if db.frozen {
		return false, fmt.Errorf("storage: delete from %s: database snapshot is immutable", relation)
	}
	r, ok := db.relations[relation]
	if !ok {
		return false, fmt.Errorf("storage: unknown relation %s", relation)
	}
	return r.Delete(Tuple(vals)), nil
}

// MutationGen sums the relations' content-mutation generations — a
// database-wide token that moves iff some relation's contents were
// mutated. See Relation.Generation.
func (db *Database) MutationGen() uint64 {
	var g uint64
	for _, r := range db.relations {
		g += r.Generation()
	}
	return g
}

// Size returns the total number of live tuples across all relations.
func (db *Database) Size() int {
	n := 0
	for _, r := range db.relations {
		n += r.Len()
	}
	return n
}

// Clone returns a deep, mutable copy of the database.
func (db *Database) Clone() *Database {
	out := &Database{schema: db.schema, relations: make(map[string]*Relation, len(db.relations))}
	for name, r := range db.relations {
		out.relations[name] = r.Clone()
	}
	return out
}

// Snapshot returns an immutable copy-on-write view of the database — the
// cheap versioning primitive behind fixity commits. Creation cost is
// O(relations), not O(data): each relation's snapshot reads a prefix of
// its append-only rows (Relation.Snapshot), and a relation whose
// content did not change since the previous Snapshot contributes that
// snapshot's frozen object again (Relation.Snapshot), so successive
// versions share their unchanged relations and Relation.Stamp tells
// which ones changed. Snapshot readers join through each relation's
// columnar block, built on first access and kept while the block set
// holds the relation (see ColumnarBlock), and a block encodes only the
// columns plans compare, so a commit pays no eager build for columns no
// query reads, and a version nobody reads keeps no block.
func (db *Database) Snapshot() *Database {
	out := &Database{frozen: true, schema: db.schema, relations: make(map[string]*Relation, len(db.relations))}
	for name, r := range db.relations {
		out.relations[name] = r.Snapshot()
	}
	return out
}

// Origin returns the origin of content read from the named relations of
// the frozen snapshot db: 1 + the newest creation stamp (Relation.Stamp)
// among them, and 1 when none is named, since such content is the same
// in every snapshot. Unknown names are skipped.
//
// Within one source's history the newest stamp identifies the whole
// tuple of relations: one that changed after the relation carrying that
// stamp was frozen would carry a newer stamp itself. So two snapshots
// give rels one origin exactly when they share every named relation's
// frozen object, and a later snapshot never gives a smaller origin than
// an earlier one. Caches key what they compute from a snapshot by its
// origin: the entry is valid for every snapshot that gives its reads the
// same origin.
func (db *Database) Origin(rels []string) uint64 {
	var newest uint64
	for _, name := range rels {
		if r := db.relations[name]; r != nil {
			newest = max(newest, r.stamp)
		}
	}
	return newest + 1
}

// BuildIndexes constructs hash indexes on every column of every relation.
// The evaluator works without indexes; building them turns joins into
// index-nested-loop joins.
func (db *Database) BuildIndexes() {
	for _, r := range db.relations {
		for col := 0; col < r.schema.Arity(); col++ {
			r.BuildIndex(col)
		}
	}
}

// String summarizes relation cardinalities, one per line.
func (db *Database) String() string {
	names := db.schema.Names()
	var b strings.Builder
	for i, n := range names {
		if i > 0 {
			b.WriteByte('\n')
		}
		fmt.Fprintf(&b, "%s: %d tuples", n, db.relations[n].Len())
	}
	return b.String()
}
