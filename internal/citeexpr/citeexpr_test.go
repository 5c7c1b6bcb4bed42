package citeexpr

import (
	"math/rand"
	"testing"

	"repro/internal/value"
)

func atomA() Atom   { return NewAtom("V1", value.Int(11)) }
func atomB() Atom   { return NewAtom("V1", value.Int(12)) }
func atomC() Atom   { return NewAtom("V3") }
func atomCV2() Atom { return NewAtom("V2") }

func TestAtomString(t *testing.T) {
	if got := atomA().String(); got != "CV1(11)" {
		t.Errorf("String = %q", got)
	}
	if got := atomC().String(); got != "CV3" {
		t.Errorf("unparameterized String = %q", got)
	}
	multi := NewAtom("V", value.Int(1), value.String("x"))
	if got := multi.String(); got != "CV(1,x)" {
		t.Errorf("multi-param String = %q", got)
	}
	quoted := NewAtom("V", value.String("a,b"), value.String("it's"), value.String("f(x)"))
	if got := quoted.String(); got != "CV('a,b','it''s','f(x)')" {
		t.Errorf("separator-holding params String = %q", got)
	}
}

func TestPaperExpressionRendering(t *testing.T) {
	// (CV1(11)·CV3 + CV1(12)·CV3) +R (CV2·CV3)
	branch1 := Alt{Children: []Expr{
		Joint{Children: []Expr{atomA(), atomC()}},
		Joint{Children: []Expr{atomB(), atomC()}},
	}}
	branch2 := Joint{Children: []Expr{atomCV2(), atomC()}}
	full := AltR{Children: []Expr{branch1, branch2}}
	want := "(CV1(11)·CV3 + CV1(12)·CV3) +R (CV2·CV3)"
	if got := full.String(); got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}

func TestCanonicalOrderInsensitive(t *testing.T) {
	a := Alt{Children: []Expr{atomA(), atomB()}}
	b := Alt{Children: []Expr{atomB(), atomA()}}
	if !Equal(a, b) {
		t.Error("reordered Alt children not Equal")
	}
	j1 := Joint{Children: []Expr{atomA(), atomC()}}
	j2 := Joint{Children: []Expr{atomC(), atomA()}}
	if !Equal(j1, j2) {
		t.Error("reordered Joint children not Equal")
	}
}

func TestCanonicalFlattens(t *testing.T) {
	nested := Alt{Children: []Expr{atomA(), Alt{Children: []Expr{atomB(), atomC()}}}}
	flat := Alt{Children: []Expr{atomA(), atomB(), atomC()}}
	if !Equal(nested, flat) {
		t.Error("nested Alt not equal to flattened")
	}
}

func TestOperatorsDistinguished(t *testing.T) {
	alt := Alt{Children: []Expr{atomA(), atomB()}}
	joint := Joint{Children: []Expr{atomA(), atomB()}}
	altR := AltR{Children: []Expr{atomA(), atomB()}}
	if Equal(alt, joint) || Equal(alt, altR) || Equal(joint, altR) {
		t.Error("different operators compare equal")
	}
}

func TestAtomsAndSize(t *testing.T) {
	e := AltR{Children: []Expr{
		Alt{Children: []Expr{
			Joint{Children: []Expr{atomA(), atomC()}},
			Joint{Children: []Expr{atomB(), atomC()}},
		}},
		Joint{Children: []Expr{atomCV2(), atomC()}},
	}}
	atoms := Atoms(e)
	if len(atoms) != 4 { // CV1(11), CV1(12), CV2, CV3
		t.Fatalf("Atoms = %v", atoms)
	}
	if Size(e) != 4 {
		t.Errorf("Size = %d, want 4", Size(e))
	}
	// Parameter values distinguish atoms of the same view.
	if atoms[0].Key() == atoms[1].Key() {
		t.Error("differently parameterized atoms share a key")
	}
	// So do parameter lists that join alike: CV('a,b', c) and CV(a, 'b,c').
	x := NewAtom("V", value.String("a,b"), value.String("c"))
	y := NewAtom("V", value.String("a"), value.String("b,c"))
	sum := Alt{Children: []Expr{x, y}}
	if Equal(x, y) || Size(sum) != 2 || len(Atoms(sum)) != 2 {
		t.Errorf("lookalike parameter lists merge: %s and %s", x, y)
	}
}

func TestSemiringIdentities(t *testing.T) {
	sr := Semiring{}
	a := Expr(atomA())
	if !Equal(sr.Plus(sr.Zero(), a), a) {
		t.Error("0 + a != a")
	}
	if !Equal(sr.Times(sr.One(), a), a) {
		t.Error("1 · a != a")
	}
	if !sr.IsZero(sr.Times(a, sr.Zero())) {
		t.Error("a · 0 != 0")
	}
	if !sr.IsZero(sr.Plus(sr.Zero(), sr.Zero())) {
		t.Error("0 + 0 != 0")
	}
}

func TestSemiringIdempotence(t *testing.T) {
	sr := Semiring{}
	a := Expr(atomA())
	if !Equal(sr.Plus(a, a), a) {
		t.Errorf("a + a = %s, want a (idempotent +)", sr.Plus(a, a))
	}
	if !Equal(sr.Times(a, a), a) {
		t.Errorf("a · a = %s, want a (idempotent ·)", sr.Times(a, a))
	}
}

// TestSemiringLaws verifies commutativity, associativity and
// distributivity up to canonical equality on random expressions.
func TestSemiringLaws(t *testing.T) {
	sr := Semiring{}
	rng := rand.New(rand.NewSource(7))
	genAtom := func() Expr {
		return NewAtom([]string{"V1", "V2", "V3"}[rng.Intn(3)], value.Int(int64(rng.Intn(3))))
	}
	var gen func(depth int) Expr
	gen = func(depth int) Expr {
		if depth == 0 || rng.Intn(2) == 0 {
			return genAtom()
		}
		if rng.Intn(2) == 0 {
			return sr.Plus(gen(depth-1), gen(depth-1))
		}
		return sr.Times(gen(depth-1), gen(depth-1))
	}
	for i := 0; i < 300; i++ {
		a, b, c := gen(2), gen(2), gen(2)
		if !Equal(sr.Plus(a, b), sr.Plus(b, a)) {
			t.Fatalf("+ not commutative: %s vs %s", a, b)
		}
		if !Equal(sr.Times(a, b), sr.Times(b, a)) {
			t.Fatalf("· not commutative: %s vs %s", a, b)
		}
		if !Equal(sr.Plus(sr.Plus(a, b), c), sr.Plus(a, sr.Plus(b, c))) {
			t.Fatalf("+ not associative")
		}
		if !Equal(sr.Times(sr.Times(a, b), c), sr.Times(a, sr.Times(b, c))) {
			t.Fatalf("· not associative")
		}
	}
}

func TestEmptyRenderings(t *testing.T) {
	if got := (Alt{}).String(); got != "0" {
		t.Errorf("empty Alt = %q", got)
	}
	if got := (Joint{}).String(); got != "1" {
		t.Errorf("empty Joint = %q", got)
	}
	if got := (AltR{}).String(); got != "0R" {
		t.Errorf("empty AltR = %q", got)
	}
	if got := (Agg{}).String(); got != "Agg{}" {
		t.Errorf("empty Agg = %q", got)
	}
}

func TestAggCanonical(t *testing.T) {
	a := Agg{Children: []Expr{atomA(), atomB()}}
	b := Agg{Children: []Expr{atomB(), atomA()}}
	if !Equal(a, b) {
		t.Error("Agg order-sensitive")
	}
}

func TestParenthesizationOfSumsUnderProducts(t *testing.T) {
	e := Joint{Children: []Expr{
		Alt{Children: []Expr{atomA(), atomB()}},
		atomC(),
	}}
	got := e.String()
	if got != "(CV1(11) + CV1(12))·CV3" {
		t.Errorf("String = %q", got)
	}
}
