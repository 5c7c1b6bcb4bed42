// Package evolution implements incremental citation maintenance under
// database updates — the paper's §3 "citation evolution" challenge: "an
// intriguing computational challenge is how to compute citations in an
// incremental manner in this setting".
//
// A Maintainer holds its own instance of every view a core.System had
// when the Maintainer was built. It writes inserts and deletes through
// the system's journaled Insert/Delete and keeps the instances consistent
// with the head without full recomputation, by the delta rule of Gupta,
// Mumick & Subrahmanian (Maintaining Views Incrementally, SIGMOD 1993):
// for a delta tuple and a view whose body mentions the delta's relation,
// each body occurrence the tuple matches is bound to the tuple and
// dropped, and evaluating the rest of the body yields the view rows with
// a derivation through the tuple. That runs before and after the write,
// and each candidate row's membership is then re-checked against the
// updated head. Rows outside the candidate set cannot change, so the work
// per delta is proportional to the number of affected rows rather than to
// the view size.
//
// The Maintainer never touches the citation generator: the system's write
// evicts the generator's entries that read the written relation, by the
// rule every other write follows.
package evolution

import (
	"fmt"
	"slices"

	"repro/internal/citation"
	"repro/internal/core"
	"repro/internal/cq"
	"repro/internal/eval"
	"repro/internal/storage"
)

// Delta is a single-tuple insert or delete against a base relation.
type Delta struct {
	Relation string
	Insert   bool
	Tuple    storage.Tuple
}

// Insert constructs an insert delta.
func Insert(relation string, t storage.Tuple) Delta {
	return Delta{Relation: relation, Insert: true, Tuple: t}
}

// Delete constructs a delete delta.
func Delete(relation string, t storage.Tuple) Delta {
	return Delta{Relation: relation, Insert: false, Tuple: t}
}

// String renders the delta.
func (d Delta) String() string {
	op := "-"
	if d.Insert {
		op = "+"
	}
	return op + d.Relation + d.Tuple.String()
}

// Stats accumulates maintenance work counters for the incremental-vs-
// recompute experiment (E4).
type Stats struct {
	DeltasApplied     int
	ViewsTouched      int
	RowsRechecked     int
	RowsInserted      int
	RowsDeleted       int
	FullRecomputeRows int // rows rebuilt by RecomputeAll (baseline)
}

// Maintainer keeps its own instances of a system's views consistent with
// the head under deltas. The instances stay consistent while every write
// to a relation they read goes through the Maintainer. A Maintainer is
// not safe for concurrent use.
type Maintainer struct {
	sys   *core.System
	views []maintained
	Stats Stats
}

// maintained is one view and the Maintainer's instance of it.
type maintained struct {
	view *citation.View
	inst *storage.Relation
}

// NewMaintainer materializes every view registered with sys and maintains
// those instances from then on. Views defined later are not maintained.
func NewMaintainer(sys *core.System) (*Maintainer, error) {
	m := &Maintainer{sys: sys}
	for _, v := range sys.Registry().Views() {
		inst, err := m.materialize(v.Name())
		if err != nil {
			return nil, err
		}
		m.views = append(m.views, maintained{v, inst})
	}
	return m, nil
}

// View returns the Maintainer's instance of the named view, or nil when it
// maintains none.
func (m *Maintainer) View(name string) *storage.Relation {
	for _, mv := range m.views {
		if mv.view.Name() == name {
			return mv.inst
		}
	}
	return nil
}

// Apply writes one delta through the system and incrementally maintains
// every view whose body reads the delta's relation.
func (m *Maintainer) Apply(d Delta) error {
	head := m.sys.Database()
	// Candidates gathered before the write cover rows that lose a
	// derivation through a deleted tuple; those gathered after it, rows
	// that gain one through an inserted tuple.
	type affected struct {
		maintained
		rows *storage.Relation
	}
	var work []affected
	for _, mv := range m.views {
		if !mentions(mv.view.Query, d.Relation) {
			continue
		}
		a := affected{mv, storage.NewRelation(mv.inst.Schema())}
		if err := affectedRows(head, a.view.Query, d, a.rows); err != nil {
			return err
		}
		work = append(work, a)
	}
	if err := m.write(d); err != nil {
		return err
	}
	m.Stats.DeltasApplied++

	for _, a := range work {
		m.Stats.ViewsTouched++
		if err := affectedRows(head, a.view.Query, d, a.rows); err != nil {
			return err
		}
		for _, r := range a.rows.Tuples() {
			m.Stats.RowsRechecked++
			present, err := derivable(head, a.view.Query, r)
			if err != nil {
				return err
			}
			switch {
			case present && !a.inst.Contains(r):
				if _, err := a.inst.Insert(r); err != nil {
					return err
				}
				m.Stats.RowsInserted++
			case !present && a.inst.Delete(r):
				m.Stats.RowsDeleted++
			}
		}
	}
	return nil
}

// ApplyBatch applies deltas in order, stopping at the first error.
func (m *Maintainer) ApplyBatch(deltas []Delta) error {
	for i, d := range deltas {
		if err := m.Apply(d); err != nil {
			return fmt.Errorf("evolution: delta %d (%s): %w", i, d, err)
		}
	}
	return nil
}

// RecomputeAll is the non-incremental baseline: it writes the deltas
// through the system and re-materializes every maintained view in full.
func (m *Maintainer) RecomputeAll(deltas []Delta) error {
	for i, d := range deltas {
		if err := m.write(d); err != nil {
			return fmt.Errorf("evolution: delta %d (%s): %w", i, d, err)
		}
	}
	for i, mv := range m.views {
		inst, err := m.materialize(mv.view.Name())
		if err != nil {
			return err
		}
		m.views[i].inst = inst
		m.Stats.FullRecomputeRows += inst.Len()
	}
	return nil
}

// materialize evaluates the named view in full over the snapshot a head
// cite reads, so the evaluation reads frozen relations through their
// columnar blocks. The delta rule reads the mutable head instead: it
// writes between every read.
func (m *Maintainer) materialize(name string) (*storage.Relation, error) {
	head, _, _, _, err := m.sys.Snapshot(0)
	if err != nil {
		return nil, err
	}
	return m.sys.Registry().Materialize(head, name)
}

// write applies the delta to the head through the system's journaled API.
func (m *Maintainer) write(d Delta) error {
	ts := []storage.Tuple{d.Tuple}
	var err error
	if d.Insert {
		_, err = m.sys.Insert(d.Relation, ts)
	} else {
		_, err = m.sys.Delete(d.Relation, ts)
	}
	return err
}

// mentions reports whether the query body references the relation.
func mentions(q *cq.Query, relation string) bool {
	for _, a := range q.Body {
		if a.Predicate == relation {
			return true
		}
	}
	return false
}

// affectedRows adds to rows every view row with a derivation that uses the
// delta tuple at a body occurrence of its relation, over db as it stands.
// The occurrence is bound to the tuple and dropped, since the tuple
// satisfies it by construction; the rest of the body is evaluated.
func affectedRows(db *storage.Database, view *cq.Query, d Delta, rows *storage.Relation) error {
	for i, a := range view.Body {
		if a.Predicate != d.Relation {
			continue
		}
		sub, ok := bind(a.Terms, d.Tuple)
		if !ok {
			continue
		}
		q := view.Substitute(sub)
		q.Body = slices.Delete(q.Body, i, i+1)
		q.Params = nil
		tuples, err := eval.Eval(db, q)
		if err != nil {
			return err
		}
		if _, err := rows.InsertOwned(tuples); err != nil {
			return err
		}
	}
	return nil
}

// derivable re-checks one view row against db: with the view's head bound
// to the row, the body must have a binding.
func derivable(db *storage.Database, view *cq.Query, row storage.Tuple) (bool, error) {
	sub, ok := bind(view.Head, row)
	if !ok {
		return false, nil
	}
	q := view.Substitute(sub)
	q.Params = nil
	return eval.HasBinding(db, q)
}

// bind matches terms against the tuple: a constant must equal its value
// and a repeated variable must meet one value. It returns the substitution
// binding each variable to its value.
func bind(terms []cq.Term, t storage.Tuple) (map[string]cq.Term, bool) {
	if len(terms) != len(t) {
		return nil, false
	}
	sub := make(map[string]cq.Term, len(terms))
	for i, term := range terms {
		if !term.IsVar {
			if term.Const != t[i] {
				return nil, false
			}
			continue
		}
		if prev, ok := sub[term.Name]; ok {
			if prev.Const != t[i] {
				return nil, false
			}
			continue
		}
		sub[term.Name] = cq.Const(t[i])
	}
	return sub, true
}
