package rewrite

import (
	"math"
	"math/rand/v2"
	"slices"
	"sort"
	"testing"

	"repro/internal/cq"
	"repro/internal/value"
)

// randomRewriting draws a rewriting of up to three view atoms and two
// base atoms, whose terms mix variables with constants that render in
// an order other than their values': 9 and 10, -1 and -10, the strings
// it's (whose quote doubles) and its, and the float zeros.
func randomRewriting(rng *rand.Rand) *Rewriting {
	consts := []value.Value{
		value.Int(9), value.Int(10), value.Int(-1), value.Int(-10),
		value.String("it's"), value.String("its"), value.String(""),
		value.Float(1.5), value.Float(0), value.Float(math.Copysign(0, -1)),
	}
	term := func() cq.Term {
		if rng.IntN(3) == 0 {
			return cq.Var([]string{"X", "Y", "Z"}[rng.IntN(3)])
		}
		return cq.Const(consts[rng.IntN(len(consts))])
	}
	terms := func(n int) []cq.Term {
		out := make([]cq.Term, n)
		for i := range out {
			out[i] = term()
		}
		return out
	}
	rw := &Rewriting{Head: terms(rng.IntN(3))}
	for range rng.IntN(4) {
		rw.ViewAtoms = append(rw.ViewAtoms, ViewAtom{ViewName: []string{"V1", "V2"}[rng.IntN(2)], Args: terms(1 + rng.IntN(2))})
	}
	for range rng.IntN(3) {
		rw.BaseAtoms = append(rw.BaseAtoms, cq.NewAtom("R", terms(2)...))
	}
	return rw
}

// TestRewritingStringMatchesAsQuery: a rewriting renders as its query
// form does, including a rewriting with no atoms (a true body) and one
// with base atoms only.
func TestRewritingStringMatchesAsQuery(t *testing.T) {
	rng := rand.New(rand.NewPCG(29, 2017))
	for range 2000 {
		rw := randomRewriting(rng)
		if got, want := rw.String(), rw.AsQuery("Q'").String(); got != want {
			t.Fatalf("String() = %q, AsQuery(\"Q'\").String() = %q", got, want)
		}
		if got, want := string(rw.AppendString([]byte("x"))), "x"+rw.String(); got != want {
			t.Fatalf("AppendString = %q, want %q", got, want)
		}
	}
}

// TestSortRewritingsOrder: SortRewritings puts fewer view atoms first,
// then orders by rendered bytes, stably. Random lists must come out as
// a stable sort that renders both rewritings in every comparison puts
// them, and two fixed lists pin orders where the rendering disagrees
// with the constants' values.
func TestSortRewritingsOrder(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 2017))
	for range 1000 {
		rs := make([]*Rewriting, rng.IntN(7))
		for i := range rs {
			rs[i] = randomRewriting(rng)
		}
		want := slices.Clone(rs)
		sort.SliceStable(want, func(i, j int) bool {
			if len(want[i].ViewAtoms) != len(want[j].ViewAtoms) {
				return len(want[i].ViewAtoms) < len(want[j].ViewAtoms)
			}
			return want[i].String() < want[j].String()
		})
		got := slices.Clone(rs)
		SortRewritings(got)
		if !slices.Equal(got, want) {
			t.Fatalf("SortRewritings:\n%q\nwant\n%q", rewritingStrings(got), rewritingStrings(want))
		}
	}
	swap := func(a, b value.Value) *Rewriting {
		return &Rewriting{ViewAtoms: []ViewAtom{{ViewName: "Swap", Args: []cq.Term{cq.Const(a), cq.Const(b)}}}}
	}
	two := &Rewriting{ViewAtoms: []ViewAtom{{ViewName: "A"}, {ViewName: "A"}}}
	for _, c := range []struct {
		in   []*Rewriting
		want []string
	}{
		{[]*Rewriting{two, swap(value.Int(9), value.Int(10)), swap(value.Int(10), value.Int(9)), swap(value.Int(-1), value.Int(-10))},
			[]string{"Q'() :- Swap(-1, -10)", "Q'() :- Swap(10, 9)", "Q'() :- Swap(9, 10)", "Q'() :- A(), A()"}},
		{[]*Rewriting{swap(value.String("its"), value.String("it's")), swap(value.String("it's"), value.String("its"))},
			[]string{"Q'() :- Swap('it''s', 'its')", "Q'() :- Swap('its', 'it''s')"}},
	} {
		SortRewritings(c.in)
		if got := rewritingStrings(c.in); !slices.Equal(got, c.want) {
			t.Errorf("SortRewritings: %q, want %q", got, c.want)
		}
	}
}

func rewritingStrings(rs []*Rewriting) []string {
	out := make([]string, len(rs))
	for i, rw := range rs {
		out[i] = rw.String()
	}
	return out
}
