package citation

import (
	"context"
	"slices"

	"repro/internal/citeexpr"
	"repro/internal/eval"
	"repro/internal/policy"
	"repro/internal/storage"
	"repro/internal/value"
)

// branch is one rewriting's annotated evaluation in flat form (DESIGN.md
// §2): per answer tuple, the paper's Σ over bindings of Π over view atoms
// as a run of monomials, each a set of atom ids. A branch interns its own
// atoms, and belongs to the one cite that evaluated it.
type branch struct {
	ix     eval.TupleIndex // the walk's answer tuples, ids in first-derivation order
	sorted []storage.Tuple // ix's tuples in answer order (Tuple.Compare)
	atoms  []atom          // by id; their number is the branch's +R size
	width  int             // ids per monomial: the view steps, at least 1
	// mono holds the monomials, width ids each, policy.NoAtom padding one
	// whose repeated atoms · dropped. Tuple id's run is its monomials
	// runs[id] to runs[id+1]; while runs is nil, the id-th alone.
	mono []uint32
	runs []int32
}

// atom is one interned citation atom CV(params); its key (appendAtomKey)
// also names it in the atom cache.
type atom struct {
	view, key string
	params    []value.Value
}

func (b *branch) has(t storage.Tuple) bool {
	_, ok := b.ix.Get(t)
	return ok
}

// run returns the run of t, a tuple of the answer.
func (b *branch) run(t storage.Tuple) []uint32 {
	id, _ := b.ix.Get(t)
	if b.runs == nil {
		return b.mono[id*b.width : (id+1)*b.width]
	}
	return b.mono[int(b.runs[id])*b.width : int(b.runs[id+1])*b.width]
}

// size returns the number of distinct atoms in t's run.
func (b *branch) size(t storage.Tuple) int {
	ids := slices.Compact(slices.Sorted(slices.Values(b.run(t))))
	return len(slices.DeleteFunc(ids, func(a uint32) bool { return a == policy.NoAtom }))
}

// expr builds the expression of t's run, the tree the citeexpr semiring
// builds for the same bindings: per monomial its atom, or a Joint of its
// atoms, and an Alt over several monomials.
func (b *branch) expr(t storage.Tuple) citeexpr.Expr {
	var alts []citeexpr.Expr
	for run, m := b.run(t), 0; m < len(run); m += b.width {
		var factors []citeexpr.Expr
		for _, a := range run[m : m+b.width] {
			if a != policy.NoAtom {
				factors = append(factors, citeexpr.Atom{View: b.atoms[a].view, Params: b.atoms[a].params})
			}
		}
		if len(factors) == 1 {
			alts = append(alts, factors[0])
		} else {
			alts = append(alts, citeexpr.Joint{Children: factors})
		}
	}
	if len(alts) == 1 {
		return alts[0]
	}
	return citeexpr.Alt{Children: alts}
}

// tabulator builds a branch from its plan's derivations.
type tabulator struct {
	b *branch
	// ids maps atom keys to ids once the branch holds more than scanAtoms
	// atoms; below that, intern scans the atoms' keys.
	ids  map[string]uint32
	vals []value.Value // the atoms' parameters
	// owner is each monomial's tuple id, nil while monomial i is tuple
	// i's.
	owner []int32
}

// scanAtoms is the most atoms a branch interns by scanning their keys:
// a cold branch holds one or two, and a map per branch cost more than
// the scan.
const scanAtoms = 8

// viewStep is a plan step reading a view, whose λ-parameters sit at pos.
type viewStep struct {
	step int
	view string
	pos  []int
}

// tabulate runs plan over inst under args (eval.Plan.Derive) into a
// branch. A binding's monomial is the atom of each view step in step
// order, a repeat dropped (idempotent ·). A tuple's run is its monomials
// in walk order, a repeat as a set dropped (idempotent +): the First
// policy reads the first derivation's.
func tabulate(ctx context.Context, plan *eval.Plan, inst eval.Instance, args []value.Value, params map[string][]int) (*branch, error) {
	var sb [4]viewStep
	steps := sb[:0]
	for i := range plan.Steps() {
		if pos, ok := params[plan.Pred(i)]; ok {
			steps = append(steps, viewStep{i, plan.Pred(i), pos})
		}
	}
	t := tabulator{b: &branch{}}
	b := t.b
	b.width = max(1, len(steps))
	// The steps stay outside the tabulator, whose contents reach the
	// branch, so they stay on the stack.
	add := func(id int, matched []storage.Tuple) { t.add(steps, id, matched) }
	if err := plan.Derive(ctx, inst, args, &b.ix, add); err != nil {
		return nil, err
	}
	if t.owner != nil {
		b.gather(t.owner)
	}
	b.sorted = slices.Clone(b.ix.Tuples())
	slices.SortFunc(b.sorted, storage.Tuple.Compare)
	return b, nil
}

// add appends the monomial of a binding that derived tuple id.
func (t *tabulator) add(steps []viewStep, id int, matched []storage.Tuple) {
	b, start := t.b, len(t.b.mono)
	for _, s := range steps {
		if a := t.intern(s, matched[s.step]); !slices.Contains(b.mono[start:], a) {
			b.mono = append(b.mono, a)
		}
	}
	for len(b.mono) < start+b.width {
		b.mono = append(b.mono, policy.NoAtom)
	}
	if n := start / b.width; t.owner == nil && id != n {
		t.owner = make([]int32, n, 2*n+1)
		for i := range t.owner {
			t.owner[i] = int32(i)
		}
	}
	if t.owner != nil {
		t.owner = append(t.owner, int32(id))
	}
}

// intern returns the id of the atom of s's view with row's parameters,
// adding the atom on first sight.
func (t *tabulator) intern(s viewStep, row storage.Tuple) uint32 {
	n := len(t.vals)
	for _, p := range s.pos {
		t.vals = append(t.vals, row[p])
	}
	var kb [64]byte
	params := t.vals[n:len(t.vals):len(t.vals)]
	kbuf := appendAtomKey(kb[:0], s.view, params)
	if id, ok := t.lookup(kbuf); ok {
		t.vals = t.vals[:n]
		return id
	}
	id, key := uint32(len(t.b.atoms)), string(kbuf)
	t.b.atoms = append(t.b.atoms, atom{s.view, key, params})
	switch {
	case t.ids != nil:
		t.ids[key] = id
	case len(t.b.atoms) > scanAtoms:
		t.ids = make(map[string]uint32, 2*len(t.b.atoms))
		for i, a := range t.b.atoms {
			t.ids[a.key] = uint32(i)
		}
	}
	return id
}

// lookup returns the id of the atom keyed key: from the map once there
// is one, and by scanning the atoms before.
func (t *tabulator) lookup(key []byte) (uint32, bool) {
	if t.ids != nil {
		id, ok := t.ids[string(key)]
		return id, ok
	}
	for i := range t.b.atoms {
		if t.b.atoms[i].key == string(key) {
			return uint32(i), true
		}
	}
	return 0, false
}

// gather makes each tuple's run, given each monomial's tuple (owner):
// its monomials in walk order, less any equal as a set to an earlier one.
func (b *branch) gather(owner []int32) {
	w, byTuple := b.width, make([]int32, len(owner))
	for i := range byTuple {
		byTuple[i] = int32(i)
	}
	slices.SortStableFunc(byTuple, func(x, y int32) int { return int(owner[x] - owner[y]) })
	mono := make([]uint32, 0, len(b.mono))
	b.runs = make([]int32, 0, b.ix.Len()+1)
	for i, m := range byTuple {
		if i == 0 || owner[m] != owner[byTuple[i-1]] {
			b.runs = append(b.runs, int32(len(mono)/w))
		}
		x, dup := b.mono[int(m)*w:int(m+1)*w], false
		for y := int(b.runs[len(b.runs)-1]) * w; y < len(mono); y += w {
			dup = dup || subset(x, mono[y:y+w]) && subset(mono[y:y+w], x)
		}
		if !dup {
			mono = append(mono, x...)
		}
	}
	b.mono, b.runs = mono, append(b.runs, int32(len(mono)/w))
}

// subset reports whether monomial y holds every atom of x.
func subset(x, y []uint32) bool {
	return !slices.ContainsFunc(x, func(a uint32) bool { return !slices.Contains(y, a) })
}
