package rewrite

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/cq"
)

// dsu is a union-find structure over query variable names, used to apply
// the variable equalities an MCD imposes when several query variables map
// to the same view head variable.
type dsu struct {
	parent map[string]string
}

func newDSU() *dsu { return &dsu{parent: make(map[string]string)} }

func (d *dsu) find(x string) string {
	p, ok := d.parent[x]
	if !ok {
		d.parent[x] = x
		return x
	}
	if p == x {
		return x
	}
	r := d.find(p)
	d.parent[x] = r
	return r
}

func (d *dsu) union(a, b string) {
	ra, rb := d.find(a), d.find(b)
	if ra != rb {
		// Prefer the lexicographically smaller root for determinism.
		if rb < ra {
			ra, rb = rb, ra
		}
		d.parent[rb] = ra
	}
}

// buildRewriting assembles a candidate Rewriting from a set of MCDs plus
// the uncovered subgoals (residual base atoms, for partial rewritings). It
// returns nil if the MCDs impose contradictory constant bindings.
func buildRewriting(q *cq.Query, selected []*mcd, uncovered []int) *Rewriting {
	d := newDSU()
	constBind := make(map[string]cq.Term)

	// Gather equalities and constant bindings per MCD.
	for _, m := range selected {
		// Query variables mapping to the same view variable are equated.
		byViewVar := make(map[string][]string)
		for x, t := range m.phi {
			if strings.HasPrefix(x, "\x00const\x00") {
				continue
			}
			if t.IsVar {
				byViewVar[t.Name] = append(byViewVar[t.Name], x)
			}
		}
		for _, xs := range byViewVar {
			for i := 1; i < len(xs); i++ {
				d.union(xs[0], xs[i])
			}
		}
	}
	for _, m := range selected {
		for x, t := range m.phi {
			if strings.HasPrefix(x, "\x00const\x00") || t.IsVar {
				continue
			}
			r := d.find(x)
			if prev, ok := constBind[r]; ok && !prev.Equal(t) {
				return nil
			}
			constBind[r] = t
		}
	}
	subst := func(t cq.Term) cq.Term {
		if !t.IsVar {
			return t
		}
		r := d.find(t.Name)
		if c, ok := constBind[r]; ok {
			return c
		}
		return cq.Var(r)
	}

	rw := &Rewriting{}
	for _, h := range q.Head {
		rw.Head = append(rw.Head, subst(h))
	}
	for mi, m := range selected {
		// Reverse map view head variables to covering query variables.
		revVar := make(map[string]string)
		for x, t := range m.phi {
			if strings.HasPrefix(x, "\x00const\x00") {
				continue
			}
			if t.IsVar {
				if _, ok := revVar[t.Name]; !ok {
					revVar[t.Name] = x
				}
			}
		}
		args := make([]cq.Term, 0, len(m.view.Head))
		for hi, h := range m.view.Head {
			// checkViews guarantees variable head terms.
			if x, ok := revVar[h.Name]; ok {
				args = append(args, subst(cq.Var(x)))
				continue
			}
			if c, ok := m.phi[constKey(h.Name)]; ok {
				args = append(args, c)
				continue
			}
			args = append(args, cq.Var(fmt.Sprintf("_f%d_%d", mi, hi)))
		}
		rw.ViewAtoms = append(rw.ViewAtoms, ViewAtom{ViewName: m.name, Args: args})
	}
	for _, gi := range uncovered {
		a := q.Body[gi].Clone()
		for i, t := range a.Terms {
			a.Terms[i] = subst(t)
		}
		rw.BaseAtoms = append(rw.BaseAtoms, a)
	}
	if !headVarsCovered(rw) {
		return nil
	}
	return rw
}

// combineMiniCon enumerates combinations of MCDs with pairwise-disjoint
// subgoal coverage whose union covers all subgoals (or, with AllowPartial,
// any subset — uncovered subgoals remain as base atoms). emit returning
// false stops the search.
func combineMiniCon(q *cq.Query, mcds []*mcd, opts Options, emit func(*Rewriting) bool) {
	n := len(q.Body)
	// Index MCDs by their smallest covered goal for the standard
	// first-uncovered-subgoal branching.
	byFirst := make([][]*mcd, n)
	for _, m := range mcds {
		if len(m.goals) > 0 {
			byFirst[m.goals[0]] = append(byFirst[m.goals[0]], m)
		}
	}
	covered := make([]bool, n)
	var selected []*mcd
	var uncovered []int
	budget := DefaultMaxCandidates
	var rec func(next int) bool
	rec = func(next int) bool {
		for next < n && covered[next] {
			next++
		}
		if next == n {
			if len(selected) == 0 {
				return true // nothing covered: not a rewriting
			}
			if budget <= 0 {
				return false
			}
			budget--
			rw := buildRewriting(q, selected, uncovered)
			if rw == nil {
				return true
			}
			return emit(rw)
		}
		// Option A: cover subgoal `next` with an MCD whose first goal is
		// exactly `next` (ensures each combination is enumerated once)
		// and whose goal set is disjoint from the current cover.
		for _, m := range byFirst[next] {
			disjoint := true
			for _, g := range m.goals {
				if covered[g] {
					disjoint = false
					break
				}
			}
			if !disjoint {
				continue
			}
			for _, g := range m.goals {
				covered[g] = true
			}
			selected = append(selected, m)
			ok := rec(next + 1)
			selected = selected[:len(selected)-1]
			for _, g := range m.goals {
				covered[g] = false
			}
			if !ok {
				return false
			}
		}
		// Option B (partial rewritings only): leave the subgoal as a
		// residual base atom.
		if opts.AllowPartial {
			uncovered = append(uncovered, next)
			ok := rec(next + 1)
			uncovered = uncovered[:len(uncovered)-1]
			if !ok {
				return false
			}
		}
		return true
	}
	rec(0)
}

// combineBucket enumerates the bucket algorithm's cartesian product: one
// bucket entry per subgoal (each entry covers exactly one subgoal).
func combineBucket(q *cq.Query, entries []*mcd, opts Options, emit func(*Rewriting) bool) {
	n := len(q.Body)
	buckets := make([][]*mcd, n)
	for _, m := range entries {
		for _, g := range m.goals {
			buckets[g] = append(buckets[g], m)
		}
	}
	var selected []*mcd
	var uncovered []int
	budget := DefaultMaxCandidates
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == n {
			if len(selected) == 0 {
				return true
			}
			if budget <= 0 {
				return false
			}
			budget--
			// The classical bucket algorithm unifies compatible uses of
			// the same view chosen for different subgoals into one view
			// atom (otherwise a multi-subgoal view could never cover a
			// join, since its existential variables are fresh per atom).
			// Emit the merged candidate, and the unmerged one as well
			// when it differs — both are then subject to the
			// equivalence certification.
			merged := mergeSameView(selected)
			rw := buildRewriting(q, merged, uncovered)
			if rw != nil && !emit(rw) {
				return false
			}
			if len(merged) != len(dedupeMCDs(selected)) {
				if rw2 := buildRewriting(q, dedupeMCDs(selected), uncovered); rw2 != nil {
					if budget <= 0 {
						return false
					}
					budget--
					return emit(rw2)
				}
			}
			return true
		}
		for _, m := range buckets[i] {
			selected = append(selected, m)
			ok := rec(i + 1)
			selected = selected[:len(selected)-1]
			if !ok {
				return false
			}
		}
		if opts.AllowPartial {
			uncovered = append(uncovered, i)
			ok := rec(i + 1)
			uncovered = uncovered[:len(uncovered)-1]
			if !ok {
				return false
			}
		}
		return true
	}
	rec(0)
}

// dedupeMCDs drops duplicate MCD pointers (the same bucket entry may be
// chosen for several subgoals; the view atom must appear once).
func dedupeMCDs(ms []*mcd) []*mcd {
	seen := make(map[*mcd]bool, len(ms))
	out := make([]*mcd, 0, len(ms))
	for _, m := range ms {
		if !seen[m] {
			seen[m] = true
			out = append(out, m)
		}
	}
	return out
}

// mergeSameView greedily merges bucket entries that reference the same
// renamed view copy and whose φ mappings are consistent, unioning their
// covered goals. Inconsistent entries (e.g. a self-join using the view
// twice with conflicting variable images) stay separate atoms.
func mergeSameView(ms []*mcd) []*mcd {
	in := dedupeMCDs(ms)
	var out []*mcd
	for _, m := range in {
		mergedIn := false
		for _, o := range out {
			if o.view != m.view {
				continue
			}
			if combined, ok := mergePhis(o.phi, m.phi); ok {
				o.phi = combined
				o.goals = unionGoals(o.goals, m.goals)
				mergedIn = true
				break
			}
		}
		if !mergedIn {
			// Copy so merging never mutates the shared bucket entries.
			out = append(out, &mcd{
				view:  m.view,
				name:  m.name,
				goals: append([]int(nil), m.goals...),
				phi:   clonePhi(m.phi),
				id:    m.id,
			})
		}
	}
	return out
}

// mergePhis merges two variable mappings, failing on any conflicting
// assignment.
func mergePhis(a, b map[string]cq.Term) (map[string]cq.Term, bool) {
	out := clonePhi(a)
	for k, v := range b {
		if prev, ok := out[k]; ok {
			if !prev.Equal(v) {
				return nil, false
			}
			continue
		}
		out[k] = v
	}
	return out, true
}

func unionGoals(a, b []int) []int {
	seen := make(map[int]bool, len(a)+len(b))
	var out []int
	for _, g := range append(append([]int(nil), a...), b...) {
		if !seen[g] {
			seen[g] = true
			out = append(out, g)
		}
	}
	sort.Ints(out)
	return out
}
