package eval

import (
	"fmt"
	"slices"

	"repro/internal/cq"
	"repro/internal/semiring"
	"repro/internal/storage"
	"repro/internal/value"
)

// ---------------------------------------------------------------------------
// Naive interpreter — the pre-plan evaluator, retained as the oracle the
// randomized equivalence tests compare compiled plans against. It re-derives
// the atom order per call and enumerates through Binding maps; nothing in
// the production path uses it.

// Binding assigns values to variable names.
type Binding map[string]value.Value

// Apply resolves a term under the binding; unbound variables report ok=false.
func (b Binding) Apply(t cq.Term) (value.Value, bool) {
	if !t.IsVar {
		return t.Const, true
	}
	v, ok := b[t.Name]
	return v, ok
}

// coerceConstants aligns an atom's constants with the kinds its
// relation's columns declare, by the rule a plan run applies to its
// arguments (coerce).
func coerceConstants(a cq.Atom, rel *storage.Relation) cq.Atom {
	out := a.Clone()
	for i, t := range out.Terms {
		if !t.IsVar {
			out.Terms[i] = cq.Const(coerce(t.Const, rel.Schema().Attributes[i].Kind))
		}
	}
	return out
}

// orderAtoms returns an evaluation order for the body atoms: greedily pick
// the atom with the most terms bound so far (constants or previously bound
// variables), breaking ties by smaller relation cardinality.
func orderAtoms(inst Instance, body []cq.Atom) ([]cq.Atom, error) {
	remaining := make([]cq.Atom, 0, len(body))
	for _, a := range body {
		rel := inst.Relation(a.Predicate)
		if rel == nil {
			return nil, fmt.Errorf("%w %s", ErrUnknownRelation, a.Predicate)
		}
		if rel.Schema().Arity() != len(a.Terms) {
			return nil, fmt.Errorf("eval: atom %s has arity %d, relation has %d",
				a.Predicate, len(a.Terms), rel.Schema().Arity())
		}
		remaining = append(remaining, coerceConstants(a, rel))
	}
	bound := make(map[string]bool)
	out := make([]cq.Atom, 0, len(body))
	for len(remaining) > 0 {
		bestIdx, bestScore, bestSize := -1, -1, 0
		for i, a := range remaining {
			rel := inst.Relation(a.Predicate)
			score := 0
			for _, t := range a.Terms {
				if !t.IsVar || bound[t.Name] {
					score++
				}
			}
			size := rel.Len()
			if bestIdx < 0 || score > bestScore || (score == bestScore && size < bestSize) {
				bestIdx, bestScore, bestSize = i, score, size
			}
		}
		chosen := remaining[bestIdx]
		remaining = append(remaining[:bestIdx], remaining[bestIdx+1:]...)
		out = append(out, chosen)
		for _, t := range chosen.Terms {
			if t.IsVar {
				bound[t.Name] = true
			}
		}
	}
	return out, nil
}

// matchAtom finds the live tuples of the atom's relation compatible with
// the current binding, preferring an indexed bound column. Repeated-variable
// positions are resolved to column pairs once, before the candidate loop —
// the interpreter used to allocate a map per candidate tuple for this check
// even when the atom had no repeated variables at all.
func matchAtom(inst Instance, a cq.Atom, b Binding) []storage.Tuple {
	rel := inst.Relation(a.Predicate)
	// Collect bound columns.
	type boundCol struct {
		col int
		val value.Value
	}
	var bounds []boundCol
	for i, t := range a.Terms {
		if v, ok := b.Apply(t); ok {
			bounds = append(bounds, boundCol{i, v})
		}
	}
	// Repeated-variable equality: column pairs (j, i), j < i, naming the
	// same variable.
	var dupPairs [][2]int
	for i := 1; i < len(a.Terms); i++ {
		if !a.Terms[i].IsVar {
			continue
		}
		for j := 0; j < i; j++ {
			if a.Terms[j].IsVar && a.Terms[j].Name == a.Terms[i].Name {
				dupPairs = append(dupPairs, [2]int{j, i})
				break
			}
		}
	}
	var candidates []storage.Tuple
	if len(bounds) > 0 {
		// Prefer an indexed column for the initial lookup.
		pick := bounds[0]
		for _, bc := range bounds {
			if rel.HasIndex(bc.col) {
				pick = bc
				break
			}
		}
		candidates = rel.Lookup(pick.col, pick.val)
	} else {
		candidates = rel.Tuples()
	}
	// Filter by all bound columns and by repeated-variable equality.
	out := candidates[:0:0]
	for _, t := range candidates {
		ok := true
		for _, bc := range bounds {
			if t[bc.col] != bc.val {
				ok = false
				break
			}
		}
		for _, d := range dupPairs {
			if !ok || t[d[0]] != t[d[1]] {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, t)
		}
	}
	return out
}

// enumerate walks every satisfying assignment of the ordered atoms,
// invoking fn with the binding and the matched tuple per atom (parallel to
// atoms). fn returning false stops the walk.
func enumerate(inst Instance, atoms []cq.Atom, fn func(Binding, []storage.Tuple) bool) {
	matched := make([]storage.Tuple, len(atoms))
	b := make(Binding)
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == len(atoms) {
			return fn(b, matched)
		}
		a := atoms[i]
		for _, t := range matchAtom(inst, a, b) {
			var newly []string
			for j, term := range a.Terms {
				if term.IsVar {
					if _, ok := b[term.Name]; !ok {
						b[term.Name] = t[j]
						newly = append(newly, term.Name)
					}
				}
			}
			matched[i] = t
			if !rec(i + 1) {
				return false
			}
			for _, v := range newly {
				delete(b, v)
			}
		}
		return true
	}
	rec(0)
}

// headTuple projects the binding onto the query head. All head variables
// are bound by construction for safe queries.
func headTuple(q *cq.Query, b Binding) (storage.Tuple, error) {
	out := make(storage.Tuple, len(q.Head))
	for i, t := range q.Head {
		v, ok := b.Apply(t)
		if !ok {
			return nil, fmt.Errorf("eval: head variable %s unbound (unsafe query %s)", t.Name, q.Name)
		}
		out[i] = v
	}
	return out, nil
}

// naiveEval is the pre-plan Eval: order atoms per call, enumerate through
// Binding maps, deduplicate through Key() strings.
func naiveEval(inst Instance, q *cq.Query) ([]storage.Tuple, error) {
	if q.IsConstant() {
		t := make(storage.Tuple, len(q.Head))
		for i, term := range q.Head {
			if term.IsVar {
				return nil, fmt.Errorf("eval: unsafe constant query %s", q.Name)
			}
			t[i] = term.Const
		}
		return []storage.Tuple{t}, nil
	}
	atoms, err := orderAtoms(inst, q.Body)
	if err != nil {
		return nil, err
	}
	seen := make(map[string]storage.Tuple)
	var evalErr error
	enumerate(inst, atoms, func(b Binding, _ []storage.Tuple) bool {
		t, err := headTuple(q, b)
		if err != nil {
			evalErr = err
			return false
		}
		seen[t.Key()] = t
		return true
	})
	if evalErr != nil {
		return nil, evalErr
	}
	out := make([]storage.Tuple, 0, len(seen))
	for _, t := range seen {
		out = append(out, t)
	}
	slices.SortFunc(out, storage.Tuple.Compare)
	return out, nil
}

// naiveEvalAnnotated is the pre-plan EvalAnnotated (sequential only).
func naiveEvalAnnotated[T any](inst Instance, q *cq.Query, sr semiring.Semiring[T], annot func(pred string, t storage.Tuple) T) ([]Annotated[T], error) {
	if q.IsConstant() {
		t := make(storage.Tuple, len(q.Head))
		for i, term := range q.Head {
			if term.IsVar {
				return nil, fmt.Errorf("eval: unsafe constant query %s", q.Name)
			}
			t[i] = term.Const
		}
		return []Annotated[T]{{Tuple: t, Annotation: sr.One()}}, nil
	}
	atoms, err := orderAtoms(inst, q.Body)
	if err != nil {
		return nil, err
	}
	acc := make(map[string]*Annotated[T])
	var order []string
	var evalErr error
	enumerate(inst, atoms, func(b Binding, matched []storage.Tuple) bool {
		t, err := headTuple(q, b)
		if err != nil {
			evalErr = err
			return false
		}
		prod := sr.One()
		for j, a := range atoms {
			prod = sr.Times(prod, annot(a.Predicate, matched[j]))
		}
		k := t.Key()
		if cur, ok := acc[k]; ok {
			cur.Annotation = sr.Plus(cur.Annotation, prod)
		} else {
			acc[k] = &Annotated[T]{Tuple: t.Clone(), Annotation: prod}
			order = append(order, k)
		}
		return true
	})
	if evalErr != nil {
		return nil, evalErr
	}
	out := make([]Annotated[T], 0, len(acc))
	for _, k := range order {
		out = append(out, *acc[k])
	}
	slices.SortFunc(out, func(a, b Annotated[T]) int { return a.Tuple.Compare(b.Tuple) })
	return out, nil
}
