// Corpus for genbump: a miniature of storage.Relation — the analyzer
// keys on "type with a bumpStats method", so this corpus exercises the
// same contract the real storage package is held to.
package storagetest

import "sync/atomic"

type Relation struct {
	rows     map[string]int
	live     int
	indexes  map[int][]int
	statsGen atomic.Uint64
}

func (r *Relation) bumpStats() {
	r.statsGen.Add(1)
}

func (r *Relation) BadInsert(t string) {
	r.rows[t] = r.live // want `method BadInsert writes relation tuple state without calling bumpStats`
	r.live++           // want `method BadInsert writes relation tuple state without calling bumpStats`
}

func (r *Relation) BadDelete(t string) {
	delete(r.rows, t) // want `method BadDelete writes relation tuple state without calling bumpStats`
}

func (r *Relation) BadReset() {
	r.live = 0 // want `method BadReset writes relation tuple state without calling bumpStats`
}

func (r *Relation) GoodInsert(t string) {
	r.rows[t] = r.live
	r.live++
	r.bumpStats()
}

func (r *Relation) GoodConditional(ts []string) {
	added := 0
	for _, t := range ts {
		if _, ok := r.rows[t]; ok {
			continue
		}
		r.rows[t] = r.live + added
		added++
	}
	if added > 0 {
		r.live += added
		r.bumpStats()
	}
}

func (r *Relation) compact() {
	//lint:nobump content-preserving reorganization: the tuple set is unchanged
	r.rows = make(map[string]int, len(r.rows))
}

// rebuild rewrites tuple state on several lines; the method-level
// directive (last doc line) blesses all of them at once.
//
//lint:nobump content-preserving rewrite: same tuples, fresh backing storage
func (r *Relation) rebuild() {
	rows := make(map[string]int, len(r.rows))
	for t, i := range r.rows {
		rows[t] = i
	}
	r.rows = rows
	r.live = len(rows)
}

// Index builds touch indexes, not tuple state: no bump required.
func (r *Relation) buildIndex(col int) {
	r.indexes[col] = append(r.indexes[col], r.live)
}

// Writes to a relation under construction (not the receiver) are the
// caller's problem; the fresh value has generation zero and no caches.
func (r *Relation) Clone() *Relation {
	nr := &Relation{rows: make(map[string]int)}
	for k, v := range r.rows {
		nr.rows[k] = v
	}
	nr.live = r.live
	return nr
}
