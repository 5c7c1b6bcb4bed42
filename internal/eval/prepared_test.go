package eval

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/cq"
	"repro/internal/schema"
	"repro/internal/semiring"
	"repro/internal/storage"
	"repro/internal/value"
)

// preparedSchema has a column of every kind, so arguments meet the kind
// rules a run applies: R(I int, F float, S string, T time) and E(A int,
// B float).
func preparedSchema() *schema.Schema {
	s := schema.New()
	s.MustAdd(schema.MustRelation("R", []schema.Attribute{
		{Name: "I", Kind: value.KindInt},
		{Name: "F", Kind: value.KindFloat},
		{Name: "S", Kind: value.KindString},
		{Name: "T", Kind: value.KindTime},
	}))
	s.MustAdd(schema.MustRelation("E", []schema.Attribute{
		{Name: "A", Kind: value.KindInt},
		{Name: "B", Kind: value.KindFloat},
	}))
	return s
}

// preparedTimes are the values of preparedDB's time column.
func preparedTimes() []time.Time {
	return []time.Time{time.Date(2026, 1, 15, 0, 0, 0, 0, time.UTC), time.Date(2026, 3, 1, 12, 0, 0, 0, time.UTC)}
}

// preparedDB fills preparedSchema with random rows whose floats include
// NaN, +0, -0 and the integral lookalikes of the int column's values.
func preparedDB(t *testing.T, rng *rand.Rand) *storage.Database {
	t.Helper()
	ints := []int64{0, 1, 2, 3}
	floats := []float64{0, math.Copysign(0, -1), 1, 2, 2.5, math.NaN()}
	strs := []string{"1", "a", "b"}
	times := preparedTimes()
	db := storage.NewDatabase(preparedSchema())
	for range 30 {
		if err := db.Insert("R",
			value.Int(ints[rng.IntN(len(ints))]),
			value.Float(floats[rng.IntN(len(floats))]),
			value.String(strs[rng.IntN(len(strs))]),
			value.Time(times[rng.IntN(len(times))])); err != nil {
			t.Fatal(err)
		}
		if err := db.Insert("E",
			value.Int(ints[rng.IntN(len(ints))]),
			value.Float(floats[rng.IntN(len(floats))])); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// preparedConsts is the constant pool of the instances: lookalikes across
// kinds (Int(1), Float(1), String("1")), NaN and both zeros, a time
// column's value as a time and as the string the query syntax writes it
// as, an unparsable time string, and values no column holds.
func preparedConsts() []value.Value {
	ts := preparedTimes()
	return []value.Value{
		value.Int(1), value.Float(1), value.String("1"),
		value.Int(2), value.Float(2.5), value.Int(0),
		value.Float(0), value.Float(math.Copysign(0, -1)), value.Float(math.NaN()),
		value.String("a"), value.String("b"),
		value.Time(ts[0]), value.String(ts[1].Format(time.RFC3339)), value.String("not-a-time"),
		value.Int(99), value.Float(7.5), value.String("zz"), value.Time(ts[0].Add(time.Hour)),
	}
}

// preparedShape is a random query shape over preparedSchema, with
// constant positions marked: body atoms over R and E whose terms are
// variables or constants, and a head of body variables and constants. A
// body-less shape has a head of constants only.
type preparedShape struct {
	head []cq.Term // a constant position holds the zero Term
	body []cq.Atom
}

func randomPreparedShape(rng *rand.Rand) preparedShape {
	vars := []string{"X", "Y", "Z", "W"}
	var sh preparedShape
	for range rng.IntN(4) {
		pred, arity := "R", 4
		if rng.IntN(2) == 0 {
			pred, arity = "E", 2
		}
		a := cq.Atom{Predicate: pred, Terms: make([]cq.Term, arity)}
		for j := range a.Terms {
			if rng.IntN(10) < 6 {
				a.Terms[j] = cq.Var(vars[rng.IntN(len(vars))])
			}
		}
		sh.body = append(sh.body, a)
	}
	var bodyVars []string
	for _, a := range sh.body {
		bodyVars = a.Vars(bodyVars)
	}
	n := rng.IntN(4)
	if len(sh.body) == 0 {
		n = 1 + rng.IntN(3)
	}
	for range n {
		if len(bodyVars) > 0 && rng.IntN(10) < 7 {
			sh.head = append(sh.head, cq.Var(bodyVars[rng.IntN(len(bodyVars))]))
		} else {
			sh.head = append(sh.head, cq.Term{})
		}
	}
	return sh
}

// instantiate fills the shape's constant positions from pool; one in
// three repeats a constant already drawn, so repeated constants occur
// within an atom and across atoms.
func (sh preparedShape) instantiate(rng *rand.Rand, pool []value.Value) *cq.Query {
	var drawn []value.Value
	fill := func(t cq.Term) cq.Term {
		if t.IsVar {
			return t
		}
		c := pool[rng.IntN(len(pool))]
		if len(drawn) > 0 && rng.IntN(3) == 0 {
			c = drawn[rng.IntN(len(drawn))]
		}
		drawn = append(drawn, c)
		return cq.Const(c)
	}
	q := &cq.Query{Name: "Q"}
	for _, t := range sh.head {
		q.Head = append(q.Head, fill(t))
	}
	for _, a := range sh.body {
		b := cq.Atom{Predicate: a.Predicate, Terms: make([]cq.Term, len(a.Terms))}
		for j, t := range a.Terms {
			b.Terms[j] = fill(t)
		}
		q.Body = append(q.Body, b)
	}
	return q
}

// TestPreparedPlanMatchesCompileRandomized is the soundness test of
// prepared plans: one plan, compiled from the first query of a random
// shape, runs with the arguments of many queries of that shape, and each
// run must equal a plan compiled from that very query — answer tuples,
// binding counts, existence, and annotations under every semiring, all in
// order — over a mutable instance (row steps) and its frozen snapshot
// (columnar steps). Each query is also checked against the pre-plan
// interpreter, which substitutes no arguments, so a plan that binds its
// arguments to the wrong slots fails even where the prepared and the
// compiled plan agree.
func TestPreparedPlanMatchesCompileRandomized(t *testing.T) {
	rng := rand.New(rand.NewPCG(28, 1992))
	db := preparedDB(t, rng)
	snap := db.Snapshot()
	pool := preparedConsts()
	var checked, nonEmpty, constant int
	for _, inst := range []struct {
		name string
		inst Instance
	}{{"row", db}, {"columnar", snap}} {
		for s := range 150 {
			sh := randomPreparedShape(rng)
			var prepared *Plan
			for k := range 8 {
				q := sh.instantiate(rng, pool)
				if q.Validate() != nil {
					continue
				}
				if prepared == nil {
					var err error
					if prepared, err = Compile(inst.inst, q); err != nil {
						t.Fatalf("%s: compile %s: %v", inst.name, q, err)
					}
				}
				where := fmt.Sprintf("%s shape %d query %d: %s", inst.name, s, k, q)
				if n := comparePrepared(t, where, inst.inst, prepared, q); n > 0 {
					nonEmpty++
				}
				checked++
				if q.IsConstant() {
					constant++
				}
			}
		}
	}
	// The test is only as strong as the runs that bind and find tuples.
	if checked < 1500 || nonEmpty < 300 || constant < 50 {
		t.Fatalf("checked %d queries, %d with answers, %d body-less", checked, nonEmpty, constant)
	}
}

// comparePrepared runs prepared with q's arguments against a plan
// compiled from q and against the interpreter, and returns the number of
// answer tuples.
func comparePrepared(t *testing.T, where string, inst Instance, prepared *Plan, q *cq.Query) int {
	t.Helper()
	compiled, err := Compile(inst, q)
	if err != nil {
		t.Fatalf("%s: compile: %v", where, err)
	}
	args := Args(nil, q)

	got, want := prepared.Eval(inst, args), compiled.Eval(inst, args)
	if g, w := tupleKeys(got), tupleKeys(want); !slices.Equal(g, w) {
		t.Fatalf("%s: prepared %q, compiled %q", where, g, w)
	}
	oracle, err := naiveEval(inst, q)
	if err != nil {
		t.Fatalf("%s: oracle: %v", where, err)
	}
	if g, w := sortedKeys(got), sortedKeys(oracle); !slices.Equal(g, w) {
		t.Fatalf("%s: prepared %q, interpreter %q", where, g, w)
	}
	if g, w := prepared.CountBindings(inst, args), compiled.CountBindings(inst, args); g != w {
		t.Fatalf("%s: prepared counts %d bindings, compiled %d", where, g, w)
	}
	if g, w := prepared.HasBinding(inst, args), compiled.HasBinding(inst, args); g != w {
		t.Fatalf("%s: prepared HasBinding %v, compiled %v", where, g, w)
	}

	comparePreparedAnnotated(t, where, inst, prepared, compiled, q, semiring.Bool{},
		func(string, storage.Tuple) bool { return true })
	comparePreparedAnnotated(t, where, inst, prepared, compiled, q, semiring.Natural{},
		func(string, storage.Tuple) int { return 1 })
	why := semiring.Why{}
	comparePreparedAnnotated[semiring.WhySet](t, where, inst, prepared, compiled, q, why,
		func(pred string, tp storage.Tuple) semiring.WhySet { return why.Singleton(pred + ":" + tp.Key()) })
	poly := semiring.Polynomial{}
	comparePreparedAnnotated[semiring.Poly](t, where, inst, prepared, compiled, q, poly,
		func(pred string, tp storage.Tuple) semiring.Poly { return poly.Token(pred + ":" + tp.Key()) })
	return len(got)
}

// comparePreparedAnnotated compares the annotated runs of the prepared
// and the compiled plan tuple by tuple, in order, and the prepared run
// against the interpreter's as a set, since the interpreter enumerates in
// an order of its own and a NaN ties with every float when answers sort.
func comparePreparedAnnotated[T any](t *testing.T, where string, inst Instance, prepared, compiled *Plan, q *cq.Query, sr semiring.Semiring[T], annot func(string, storage.Tuple) T) {
	t.Helper()
	args := Args(nil, q)
	got := RunAnnotated(prepared, inst, args, sr, annot)
	want := RunAnnotated(compiled, inst, args, sr, annot)
	if len(got) != len(want) {
		t.Fatalf("%s: prepared annotates %d tuples, compiled %d", where, len(got), len(want))
	}
	for i := range want {
		if got[i].Tuple.Key() != want[i].Tuple.Key() || !sr.Equal(got[i].Annotation, want[i].Annotation) {
			t.Fatalf("%s: annotated tuple %d: prepared %v %v, compiled %v %v",
				where, i, got[i].Tuple, got[i].Annotation, want[i].Tuple, want[i].Annotation)
		}
	}
	oracle, err := naiveEvalAnnotated(inst, q, sr, annot)
	if err != nil {
		t.Fatalf("%s: oracle annotated: %v", where, err)
	}
	if len(oracle) != len(got) {
		t.Fatalf("%s: prepared annotates %d tuples, interpreter %d", where, len(got), len(oracle))
	}
	for _, o := range oracle {
		i := slices.IndexFunc(got, func(a Annotated[T]) bool { return a.Tuple.Key() == o.Tuple.Key() })
		if i < 0 || !sr.Equal(got[i].Annotation, o.Annotation) {
			t.Fatalf("%s: interpreter annotates %v with %v, prepared does not", where, o.Tuple, o.Annotation)
		}
	}
}

// tupleKeys renders tuples in order by Tuple.Key, which tells ±0 apart and
// takes every NaN to be equal.
func tupleKeys(ts []storage.Tuple) []string {
	out := make([]string, len(ts))
	for i, t := range ts {
		out[i] = t.Key()
	}
	return out
}

func sortedKeys(ts []storage.Tuple) []string {
	out := tupleKeys(ts)
	slices.Sort(out)
	return out
}

// TestPreparedPlanBindsPerRun pins the kind rules and the dictionary
// misses a run resolves from its arguments rather than from the query
// the plan was compiled from: a string argument on a time column is
// lifted to a time, an int on a float column to a float, a lookalike of
// another kind matches nothing, and an argument absent from the column's
// dictionary empties the run — each after a run that matched.
func TestPreparedPlanBindsPerRun(t *testing.T) {
	db := preparedDB(t, rand.New(rand.NewPCG(1, 2)))
	t1 := preparedTimes()[1]
	if err := db.Insert("R", value.Int(7), value.Float(4), value.String("k"), value.Time(t1)); err != nil {
		t.Fatal(err)
	}
	for _, inst := range []Instance{db, db.Snapshot()} {
		p, err := Compile(inst, cq.MustParse("Q(S, 'h') :- R(7, 4.0, S, T), R(I, F, S, T)"))
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			args []value.Value
			want []string
		}{
			{[]value.Value{value.String("h"), value.Int(7), value.Float(4)}, []string{"('k', 'h')"}},
			{[]value.Value{value.String("x"), value.Int(7), value.Int(4)}, []string{"('k', 'x')"}},
			{[]value.Value{value.String("h"), value.Float(7), value.Float(4)}, nil},
			{[]value.Value{value.String("h"), value.Int(8), value.Float(4)}, nil},
			{[]value.Value{value.Int(1), value.Int(7), value.Float(4)}, []string{"('k', 1)"}},
		} {
			if got := rows(p.Eval(inst, tc.args)); !slices.Equal(got, tc.want) {
				t.Errorf("args %v: got %v, want %v", tc.args, got, tc.want)
			}
		}
		tp, err := Compile(inst, cq.MustParse("Q(I) :- R(I, F, S, '2026-03-01T12:00:00Z')"))
		if err != nil {
			t.Fatal(err)
		}
		if n := tp.CountBindings(inst, []value.Value{value.String(t1.Format(time.RFC3339))}); n == 0 {
			t.Error("a time string argument matched no time value")
		}
		if n := tp.CountBindings(inst, []value.Value{value.String("not-a-time")}); n != 0 {
			t.Errorf("an unparsable time string matched %d rows", n)
		}
	}
}

// TestPreparedPlanArgumentCount: a run whose argument vector does not fit
// the plan is a caller bug, and panics instead of reading stale slots.
func TestPreparedPlanArgumentCount(t *testing.T) {
	db := edgeDB(t, nil)
	p, err := Compile(db, cq.MustParse("Q(X) :- E(X, 1)"))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("a run without the plan's argument did not panic")
		}
	}()
	p.Eval(db, nil)
}

// TestAppendShape: queries that differ only in their constants, their
// variable names, their name or their λ-parameters share a shape; a
// variable pattern, a constant position, a predicate or an atom order of
// its own makes another.
func TestAppendShape(t *testing.T) {
	shape := func(src string) string { return string(AppendShape(nil, cq.MustParse(src))) }
	base := shape("Q(X, 'a') :- R(X, 1, Y), E(Y, Z)")
	for _, same := range []string{
		"P(A, 2.5) :- R(A, 'x', B), E(B, C)",
		"lambda X. Q(X, 'b') :- R(X, 1, Y), E(Y, Z)",
	} {
		if got := shape(same); got != base {
			t.Errorf("%s: shape differs from its base", same)
		}
	}
	for _, other := range []string{
		"Q(X, Y) :- R(X, 1, Y), E(Y, Z)",
		"Q(X, 'a') :- R(X, Y, 1), E(Y, Z)",
		"Q(X, 'a') :- R(X, 1, Y), E(Z, Y)",
		"Q(X, 'a') :- R(X, 1, Y), F(Y, Z)",
		"Q(X, 'a') :- E(Y, Z), R(X, 1, Y)",
		"Q(X, 'a') :- R(X, 1, X), E(Y, Z)",
		"Q(X) :- R(X, 1, Y), E(Y, Z)",
	} {
		if got := shape(other); got == base {
			t.Errorf("%s: shares its base's shape", other)
		}
	}
}

// TestPreparedPlanConcurrentRuns: one plan serves concurrent runs with
// different arguments, as a cached plan serves concurrent cites. Each
// goroutine's answers must be its own arguments' answers.
func TestPreparedPlanConcurrentRuns(t *testing.T) {
	snap := preparedDB(t, rand.New(rand.NewPCG(3, 4))).Snapshot()
	q := cq.MustParse("Q(I, F) :- R(I, F, S, T), E(1, F)")
	p, err := Compile(snap, q)
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]string, 4)
	for a := range want {
		want[a] = tupleKeys(p.Eval(snap, []value.Value{value.Int(int64(a))}))
	}
	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 200 {
				a := (g + i) % len(want)
				if got := tupleKeys(p.Eval(snap, []value.Value{value.Int(int64(a))})); !slices.Equal(got, want[a]) {
					t.Errorf("goroutine %d, argument %d: %q, want %q", g, a, got, want[a])
					return
				}
			}
		}()
	}
	wg.Wait()
}
