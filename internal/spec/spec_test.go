package spec

import (
	"os"
	"testing"
)

func paperSpec(t *testing.T) string {
	t.Helper()
	raw, err := os.ReadFile("../../testdata/paper.dcs")
	if err != nil {
		t.Fatalf("reading testdata: %v", err)
	}
	return string(raw)
}

func TestLoadPaperSpec(t *testing.T) {
	sys, err := Load(paperSpec(t))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	db := sys.Database()
	if db.Relation("Family").Len() != 2 {
		t.Errorf("families %d, want 2", db.Relation("Family").Len())
	}
	if db.Relation("Committee").Len() != 3 {
		t.Errorf("committee %d, want 3", db.Relation("Committee").Len())
	}
	if sys.Registry().Len() != 3 {
		t.Errorf("views %d, want 3", sys.Registry().Len())
	}
	v1 := sys.Registry().View("V1")
	if v1 == nil {
		t.Fatal("V1 missing")
	}
	if !v1.Query.IsParameterized() {
		t.Error("V1 not parameterized")
	}
	if len(v1.Citations) != 1 {
		t.Errorf("V1 citations %d", len(v1.Citations))
	}
	if v1.Static == nil || len(v1.Static["database"]) != 1 {
		t.Errorf("V1 static %v", v1.Static)
	}
}

func TestLoadedSystemCites(t *testing.T) {
	sys, err := Load(paperSpec(t))
	if err != nil {
		t.Fatal(err)
	}
	cite, err := sys.Cite("Q(FName) :- Family(FID, FName, Desc), FamilyIntro(FID, Text)")
	if err != nil {
		t.Fatal(err)
	}
	if len(cite.Result.Tuples) != 1 {
		t.Fatalf("tuples %d", len(cite.Result.Tuples))
	}
	want := "(CV1(11)·CV3 + CV1(12)·CV3) +R (CV2·CV3)"
	if got := cite.Result.Tuples[0].Expr().String(); got != want {
		t.Errorf("expression %q, want %q", got, want)
	}
}

func TestKeyColumnsAndKinds(t *testing.T) {
	sys, err := Load(`
relation R(A int*, B float, C time, D string)
tuple R(1, 2.5, '2026-01-01T00:00:00Z', 'x')
`)
	if err != nil {
		t.Fatal(err)
	}
	rs := sys.Database().Schema().Relation("R")
	if !rs.HasKey() || rs.Key[0] != 0 {
		t.Errorf("key %v", rs.Key)
	}
	if sys.Database().Relation("R").Len() != 1 {
		t.Error("tuple not loaded")
	}
}

func TestLoadErrors(t *testing.T) {
	cases := map[string]string{
		"unknown directive":   "frobnicate x",
		"bad relation syntax": "relation R[A int]",
		"unknown kind":        "relation R(A blob)",
		"tuple with variable": "relation R(A int)\ntuple R(X)",
		"tuple kind mismatch": "relation R(A int)\ntuple R('s')",
		"cite unknown view":   "cite V fields a CV(D) :- D = 'x'",
		"cite missing fields": "relation R(A int)\nview V(A) :- R(A)\ncite V CV(D) :- D = 'x'",
		"static unknown view": "static V database 'x'",
		"bad view query":      "view V(( :- R(A)",
		"duplicate relation":  "relation R(A int)\nrelation R(A int)",
	}
	for name, src := range cases {
		if _, err := Load(src); err == nil {
			t.Errorf("%s: accepted %q", name, src)
		}
	}
}

func TestCommentsAndBlanks(t *testing.T) {
	sys, err := Load(`
-- comment
# hash comment

relation R(A int)
tuple R(1)
`)
	if err != nil {
		t.Fatal(err)
	}
	if sys.Database().Relation("R").Len() != 1 {
		t.Error("data not loaded around comments")
	}
}

func TestStaticQuotedValue(t *testing.T) {
	sys, err := Load(`
relation R(A int)
view V(A) :- R(A)
static V note 'it''s quoted'
`)
	if err != nil {
		t.Fatal(err)
	}
	v := sys.Registry().View("V")
	if got := v.Static["note"]; len(got) != 1 || got[0] != "it's quoted" {
		t.Errorf("static note %v", got)
	}
}

func TestFieldsUnderscoreSkips(t *testing.T) {
	sys, err := Load(`
relation R(A int, B string)
view V(A, B) :- R(A, B)
cite V fields _,author lambda A. CV(A, B) :- R(A, B)
`)
	if err == nil {
		// The cite query has lambda A but the view is unparameterized —
		// must be rejected.
		t.Fatal("parameter mismatch accepted")
	}
	sys, err = Load(`
relation R(A int, B string)
view lambda A. V(A, B) :- R(A, B)
cite V fields _,author lambda A. CV(A, B) :- R(A, B)
`)
	if err != nil {
		t.Fatal(err)
	}
	v := sys.Registry().View("V")
	if v.Citations[0].Fields[0] != "" || v.Citations[0].Fields[1] != "author" {
		t.Errorf("fields %v", v.Citations[0].Fields)
	}
}
