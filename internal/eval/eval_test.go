package eval

import (
	"fmt"
	"testing"

	"repro/internal/citeexpr"
	"repro/internal/cq"
	"repro/internal/schema"
	"repro/internal/semiring"
	"repro/internal/storage"
	"repro/internal/value"
)

// edgeDB builds a database with a binary relation E holding the edges.
func edgeDB(t *testing.T, edges [][2]int64) *storage.Database {
	t.Helper()
	s := schema.New()
	s.MustAdd(schema.MustRelation("E", []schema.Attribute{
		{Name: "A", Kind: value.KindInt},
		{Name: "B", Kind: value.KindInt},
	}))
	db := storage.NewDatabase(s)
	for _, e := range edges {
		if err := db.Insert("E", value.Int(e[0]), value.Int(e[1])); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func rows(ts []storage.Tuple) []string {
	out := make([]string, len(ts))
	for i, t := range ts {
		out[i] = t.String()
	}
	return out
}

func TestEvalSingleAtom(t *testing.T) {
	db := edgeDB(t, [][2]int64{{1, 2}, {2, 3}})
	got, err := Eval(db, cq.MustParse("Q(X, Y) :- E(X, Y)"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("got %v", rows(got))
	}
}

func TestEvalProjectionDeduplicates(t *testing.T) {
	db := edgeDB(t, [][2]int64{{1, 2}, {1, 3}, {2, 3}})
	got, err := Eval(db, cq.MustParse("Q(X) :- E(X, Y)"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 { // sources 1 and 2
		t.Fatalf("projection not deduplicated: %v", rows(got))
	}
}

func TestEvalJoin(t *testing.T) {
	db := edgeDB(t, [][2]int64{{1, 2}, {2, 3}, {3, 4}})
	got, err := Eval(db, cq.MustParse("Q(X, Z) :- E(X, Y), E(Y, Z)"))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"(1, 3)": true, "(2, 4)": true}
	if len(got) != len(want) {
		t.Fatalf("got %v", rows(got))
	}
	for _, r := range got {
		if !want[r.String()] {
			t.Errorf("unexpected row %s", r)
		}
	}
}

func TestEvalJoinWithIndexesMatchesWithout(t *testing.T) {
	edges := [][2]int64{}
	for i := int64(0); i < 50; i++ {
		edges = append(edges, [2]int64{i, (i + 1) % 50}, [2]int64{i, (i + 7) % 50})
	}
	q := cq.MustParse("Q(X, Z) :- E(X, Y), E(Y, Z)")
	noIdx := edgeDB(t, edges)
	withIdx := edgeDB(t, edges)
	withIdx.BuildIndexes()
	a, err := Eval(noIdx, q)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Eval(withIdx, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("index changes result: %d vs %d rows", len(a), len(b))
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			t.Fatalf("row %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestEvalRepeatedVariableInAtom(t *testing.T) {
	db := edgeDB(t, [][2]int64{{1, 1}, {1, 2}, {3, 3}})
	got, err := Eval(db, cq.MustParse("Q(X) :- E(X, X)"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("self-loops: %v", rows(got))
	}
}

func TestEvalConstantInAtom(t *testing.T) {
	db := edgeDB(t, [][2]int64{{1, 2}, {2, 2}, {3, 1}})
	got, err := Eval(db, cq.MustParse("Q(X) :- E(X, 2)"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("constant filter: %v", rows(got))
	}
}

func TestEvalConstantQuery(t *testing.T) {
	db := edgeDB(t, nil)
	got, err := Eval(db, cq.MustParse("C('k', 5) :- true"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].String() != "('k', 5)" {
		t.Fatalf("constant query: %v", rows(got))
	}
}

func TestEvalConstantHeadInNormalQuery(t *testing.T) {
	db := edgeDB(t, [][2]int64{{1, 2}})
	got, err := Eval(db, cq.MustParse("Q(X, 'tag') :- E(X, Y)"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0][1].Str() != "tag" {
		t.Fatalf("constant head column: %v", rows(got))
	}
}

func TestEvalUnknownRelation(t *testing.T) {
	db := edgeDB(t, nil)
	if _, err := Eval(db, cq.MustParse("Q(X) :- Nope(X, Y)")); err == nil {
		t.Error("unknown relation accepted")
	}
}

func TestEvalArityMismatch(t *testing.T) {
	db := edgeDB(t, nil)
	if _, err := Eval(db, cq.MustParse("Q(X) :- E(X, Y, Z)")); err == nil {
		t.Error("arity mismatch accepted")
	}
}

func TestEvalEmptyRelation(t *testing.T) {
	db := edgeDB(t, nil)
	got, err := Eval(db, cq.MustParse("Q(X, Y) :- E(X, Y)"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("empty relation yielded %v", rows(got))
	}
}

func TestCountBindingsVsDistinct(t *testing.T) {
	// Two paths to the same output tuple: bindings=2, distinct=1.
	db := edgeDB(t, [][2]int64{{1, 2}, {1, 3}})
	s := db.Schema()
	_ = s
	q := cq.MustParse("Q(X) :- E(X, Y)")
	n, err := CountBindings(db, q)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Errorf("bindings = %d, want 2", n)
	}
	d, err := Eval(db, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(d) != 1 {
		t.Errorf("distinct = %d, want 1", len(d))
	}
}

func TestBindingApply(t *testing.T) {
	b := Binding{"X": value.Int(1)}
	if v, ok := b.Apply(cq.Var("X")); !ok || v != value.Int(1) {
		t.Error("bound variable not applied")
	}
	if _, ok := b.Apply(cq.Var("Y")); ok {
		t.Error("unbound variable reported bound")
	}
	if v, ok := b.Apply(cq.Const(value.Int(9))); !ok || v != value.Int(9) {
		t.Error("constant term not applied")
	}
}

func TestEvalAnnotatedCountsDerivations(t *testing.T) {
	// Output tuple (1) derivable via Y=2 and Y=3: count annotation 2.
	db := edgeDB(t, [][2]int64{{1, 2}, {1, 3}})
	got, err := EvalAnnotated[int](db, cq.MustParse("Q(X) :- E(X, Y)"), semiring.Natural{},
		func(string, storage.Tuple) int { return 1 })
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Annotation != 2 {
		t.Fatalf("annotated: %+v", got)
	}
}

func TestEvalAnnotatedPolynomialProvenance(t *testing.T) {
	db := edgeDB(t, [][2]int64{{1, 2}, {2, 3}})
	sr := semiring.Polynomial{}
	got, err := EvalAnnotated[semiring.Poly](db, cq.MustParse("Q(X, Z) :- E(X, Y), E(Y, Z)"), sr,
		func(pred string, tp storage.Tuple) semiring.Poly {
			return sr.Token(fmt.Sprintf("%s%s", pred, tp))
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("got %d annotated rows", len(got))
	}
	// Single derivation: product of the two edge tokens.
	want := sr.Times(sr.Token("E(1, 2)"), sr.Token("E(2, 3)"))
	if !sr.Equal(got[0].Annotation, want) {
		t.Errorf("annotation %v, want %v", got[0].Annotation, want)
	}
}

func TestEvalAnnotatedAgreesWithPlain(t *testing.T) {
	edges := [][2]int64{}
	for i := int64(0); i < 20; i++ {
		edges = append(edges, [2]int64{i % 5, i % 7})
	}
	db := edgeDB(t, edges)
	q := cq.MustParse("Q(X, Z) :- E(X, Y), E(Y, Z)")
	plain, err := Eval(db, q)
	if err != nil {
		t.Fatal(err)
	}
	annotated, err := EvalAnnotated[bool](db, q, semiring.Bool{},
		func(string, storage.Tuple) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if len(plain) != len(annotated) {
		t.Fatalf("plain %d rows, annotated %d", len(plain), len(annotated))
	}
	for i := range plain {
		if !plain[i].Equal(annotated[i].Tuple) {
			t.Errorf("row %d differs", i)
		}
		if !annotated[i].Annotation {
			t.Errorf("row %d annotated false", i)
		}
	}
}

func TestEvalAnnotatedCiteExpr(t *testing.T) {
	// The citation-expression semiring yields Σ_B Π_i atoms.
	db := edgeDB(t, [][2]int64{{1, 2}, {1, 3}})
	sr := citeexpr.Semiring{}
	got, err := EvalAnnotated[citeexpr.Expr](db, cq.MustParse("Q(X) :- E(X, Y)"), sr,
		func(pred string, tp storage.Tuple) citeexpr.Expr {
			return citeexpr.NewAtom(pred, tp[1])
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("rows %d", len(got))
	}
	if n := citeexpr.Size(got[0].Annotation); n != 2 {
		t.Errorf("expression %s has %d atoms, want 2", got[0].Annotation, n)
	}
}

func TestMaterialize(t *testing.T) {
	db := edgeDB(t, [][2]int64{{1, 2}, {2, 3}})
	rs := schema.MustRelation("V", []schema.Attribute{
		{Name: "X", Kind: value.KindInt},
		{Name: "Z", Kind: value.KindInt},
	})
	inst := storage.NewRelation(rs)
	if err := Materialize(db, cq.MustParse("V(X, Z) :- E(X, Y), E(Y, Z)"), inst); err != nil {
		t.Fatal(err)
	}
	if inst.Len() != 1 || !inst.Contains(storage.Tuple{value.Int(1), value.Int(3)}) {
		t.Fatalf("materialized %v", inst.Tuples())
	}
}

func TestRelationsInstance(t *testing.T) {
	rs := schema.MustRelation("V", []schema.Attribute{{Name: "X", Kind: value.KindInt}})
	r := storage.NewRelation(rs)
	r.MustInsert(value.Int(1))
	inst := Relations{"V": r}
	got, err := Eval(inst, cq.MustParse("Q(X) :- V(X)"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("rows %v", rows(got))
	}
}

func TestConstantCoercionAgainstSchema(t *testing.T) {
	// Quoted literals parse as strings; against a time column they must
	// be lifted to time values, and int literals against float columns.
	s := schema.New()
	s.MustAdd(schema.MustRelation("Snap", []schema.Attribute{
		{Name: "At", Kind: value.KindTime},
		{Name: "Score", Kind: value.KindFloat},
	}))
	db := storage.NewDatabase(s)
	ts := value.Parse("2026-06-12T00:00:00Z")
	if err := db.Insert("Snap", ts, value.Float(3)); err != nil {
		t.Fatal(err)
	}
	got, err := Eval(db, cq.MustParse("Q(S) :- Snap('2026-06-12T00:00:00Z', S)"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("time literal not coerced: %v", rows(got))
	}
	got, err = Eval(db, cq.MustParse("Q(A) :- Snap(A, 3)"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("int literal not coerced to float: %v", rows(got))
	}
	// Unliftable constant: empty answer, no error.
	got, err = Eval(db, cq.MustParse("Q(S) :- Snap('not a time', S)"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("garbage literal matched: %v", rows(got))
	}
}

func TestCartesianProduct(t *testing.T) {
	s := schema.New()
	s.MustAdd(schema.MustRelation("A", []schema.Attribute{{Name: "X", Kind: value.KindInt}}))
	s.MustAdd(schema.MustRelation("B", []schema.Attribute{{Name: "Y", Kind: value.KindInt}}))
	db := storage.NewDatabase(s)
	for i := int64(0); i < 3; i++ {
		if err := db.Insert("A", value.Int(i)); err != nil {
			t.Fatal(err)
		}
		if err := db.Insert("B", value.Int(i)); err != nil {
			t.Fatal(err)
		}
	}
	got, err := Eval(db, cq.MustParse("Q(X, Y) :- A(X), B(Y)"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 9 {
		t.Fatalf("cartesian product has %d rows, want 9", len(got))
	}
}
