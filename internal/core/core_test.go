package core

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/format"
	"repro/internal/gtopdb"
	"repro/internal/schema"
	"repro/internal/storage"
	"repro/internal/value"
)

const title = "IUPHAR/BPS Guide to PHARMACOLOGY"

func paperSystem(t *testing.T) *System {
	t.Helper()
	s := schema.New()
	s.MustAdd(schema.MustRelation("Family", []schema.Attribute{
		{Name: "FID", Kind: value.KindInt},
		{Name: "FName", Kind: value.KindString},
		{Name: "Desc", Kind: value.KindString},
	}, "FID"))
	s.MustAdd(schema.MustRelation("Committee", []schema.Attribute{
		{Name: "FID", Kind: value.KindInt},
		{Name: "PName", Kind: value.KindString},
	}))
	s.MustAdd(schema.MustRelation("FamilyIntro", []schema.Attribute{
		{Name: "FID", Kind: value.KindInt},
		{Name: "Text", Kind: value.KindString},
	}, "FID"))
	sys := NewSystem(s)
	db := sys.Database()
	ins := func(rel string, vals ...value.Value) {
		if err := db.Insert(rel, vals...); err != nil {
			t.Fatal(err)
		}
	}
	ins("Family", value.Int(11), value.String("Calcitonin"), value.String("C1"))
	ins("Family", value.Int(12), value.String("Calcitonin"), value.String("C2"))
	ins("FamilyIntro", value.Int(11), value.String("1st"))
	ins("FamilyIntro", value.Int(12), value.String("2nd"))
	ins("Committee", value.Int(11), value.String("Alice"))
	ins("Committee", value.Int(12), value.String("Carol"))
	db.BuildIndexes()
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(sys.DefineView(
		"lambda FID. V1(FID, FName, Desc) :- Family(FID, FName, Desc)",
		format.NewRecord(format.FieldDatabase, title),
		CitationSpec{
			Query:  "lambda FID. CV1(FID, PName) :- Committee(FID, PName)",
			Fields: []string{format.FieldIdentifier, format.FieldAuthor},
		}))
	must(sys.DefineView(
		"V3(FID, Text) :- FamilyIntro(FID, Text)", nil,
		CitationSpec{
			Query:  "CV3(D) :- D = '" + title + "'",
			Fields: []string{format.FieldDatabase},
		}))
	return sys
}

const paperQ = "Q(FName) :- Family(FID, FName, Desc), FamilyIntro(FID, Text)"

func TestCiteWithoutCommitHasNoPin(t *testing.T) {
	sys := paperSystem(t)
	cite, err := sys.Cite(paperQ)
	if err != nil {
		t.Fatal(err)
	}
	if cite.Pin != nil {
		t.Error("pin present without any committed version")
	}
	if strings.Contains(cite.Text(), "sha256") {
		t.Error("text contains pin without commit")
	}
}

func TestCiteWithCommitCarriesPin(t *testing.T) {
	sys := paperSystem(t)
	info := sys.Commit("v1")
	if info.Version != 1 {
		t.Fatalf("version %d", info.Version)
	}
	cite, err := sys.Cite(paperQ)
	if err != nil {
		t.Fatal(err)
	}
	if cite.Pin == nil {
		t.Fatal("no pin after commit")
	}
	if cite.Pin.Version != 1 || cite.Pin.Tuples != 1 {
		t.Errorf("pin %+v", cite.Pin)
	}
	ok, err := sys.Store().Verify(*cite.Pin)
	if err != nil || !ok {
		t.Errorf("pin does not verify: ok=%v err=%v", ok, err)
	}
}

func TestAllFormatsIncludePin(t *testing.T) {
	sys := paperSystem(t)
	sys.Commit("v1")
	cite, err := sys.Cite(paperQ)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(cite.Text(), "sha256=") {
		t.Error("Text missing pin")
	}
	if !strings.Contains(cite.BibTeX("k"), "sha256=") {
		t.Error("BibTeX missing pin")
	}
	if !strings.Contains(cite.RIS(), "sha256=") {
		t.Error("RIS missing pin")
	}
	xmlOut, err := cite.XML()
	if err != nil || !strings.Contains(xmlOut, "sha256=") {
		t.Errorf("XML missing pin: %v", err)
	}
	jsonOut, err := cite.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var m map[string][]string
	if err := json.Unmarshal([]byte(jsonOut), &m); err != nil {
		t.Fatalf("JSON invalid: %v", err)
	}
	// Rendering with pin must not mutate the underlying record.
	if len(cite.Result.Record[format.FieldNote]) != 0 {
		t.Error("pin rendering mutated the result record")
	}
}

func TestDefineViewErrors(t *testing.T) {
	sys := paperSystem(t)
	if err := sys.DefineView("not a query", nil); err == nil {
		t.Error("bad view source accepted")
	}
	if err := sys.DefineView("V9(X) :- Family(X, N, D)", nil,
		CitationSpec{Query: "broken((", Fields: nil}); err == nil {
		t.Error("bad citation source accepted")
	}
	if err := sys.DefineView("V1(FID, FName, Desc) :- Family(FID, FName, Desc)", nil); err == nil {
		t.Error("duplicate view name accepted")
	}
}

func TestCiteParseError(t *testing.T) {
	sys := paperSystem(t)
	if _, err := sys.Cite("((("); err == nil {
		t.Error("unparseable query accepted")
	}
}

func TestSetPolicyAffectsCitations(t *testing.T) {
	sys := paperSystem(t)
	if err := sys.SetPolicyNamed("maxcoverage"); err != nil {
		t.Fatal(err)
	}
	cite, err := sys.Cite(paperQ)
	if err != nil {
		t.Fatal(err)
	}
	if len(cite.Result.Record[format.FieldAuthor]) == 0 {
		t.Error("max-coverage policy produced no authors")
	}
}

func TestVersionEpoch(t *testing.T) {
	sys := paperSystem(t)
	base := sys.Version()
	sys.Commit("v1")
	afterCommit := sys.Version()
	if afterCommit <= base {
		t.Errorf("Commit did not advance the epoch: %d -> %d", base, afterCommit)
	}
	if err := sys.SetPolicyNamed("maxcoverage"); err != nil {
		t.Fatal(err)
	}
	afterPolicy := sys.Version()
	if afterPolicy <= afterCommit {
		t.Errorf("SetPolicyNamed did not advance the epoch: %d -> %d", afterCommit, afterPolicy)
	}
	if err := sys.DefineView("V7(FID) :- Family(FID, FName, Desc)", nil); err != nil {
		t.Fatal(err)
	}
	afterView := sys.Version()
	if afterView <= afterPolicy {
		t.Errorf("DefineView did not advance the epoch: %d -> %d", afterPolicy, afterView)
	}
	// A failed DefineView must not advance the epoch.
	if err := sys.DefineView("not a query", nil); err == nil {
		t.Fatal("bad view source accepted")
	}
	if got := sys.Version(); got != afterView {
		t.Errorf("failed DefineView advanced the epoch: %d -> %d", afterView, got)
	}
}

func TestCiteEachPerQueryErrors(t *testing.T) {
	sys := paperSystem(t)
	sys.Commit("v1")
	queries := []string{
		paperQ,
		"(((",
		"Q(Text) :- FamilyIntro(FID, Text)",
	}
	out, errs := sys.CiteEach(queries)
	if len(out) != 3 || len(errs) != 3 {
		t.Fatalf("positional results: %d/%d", len(out), len(errs))
	}
	if errs[0] != nil || out[0] == nil {
		t.Errorf("query 0 failed: %v", errs[0])
	}
	if errs[1] == nil || out[1] != nil {
		t.Error("parse failure at position 1 not reported positionally")
	}
	if errs[2] != nil || out[2] == nil {
		t.Errorf("query 2 failed despite neighbor's parse error: %v", errs[2])
	}
	if out[0].Pin == nil || out[2].Pin == nil {
		t.Error("batch citations missing pins after commit")
	}
}

func TestNewSystemFromDatabase(t *testing.T) {
	generate := func(families int) *storage.Database {
		cfg := gtopdb.DefaultConfig()
		cfg.Families = families
		return gtopdb.Generate(cfg)
	}
	db := generate(15)
	sys := NewSystemFromDatabase(db)
	fam := sys.Database().Relation("Family")
	if fam.Len() != 15 {
		t.Error("data not copied")
	}
	// Mutating the source must not affect the system.
	if err := db.Insert("Family", value.Int(999), value.String("X"), value.String("D")); err != nil {
		t.Fatal(err)
	}
	if fam.Len() != 15 {
		t.Error("system shares storage with source database")
	}
	gone := db.Relation("Family").Tuples()[0]
	if ok, err := db.Delete("Family", gone...); err != nil || !ok {
		t.Fatalf("deleting %v from the source: %v, %v", gone, ok, err)
	}
	if fam.Len() != 15 || !fam.Contains(gone) {
		t.Errorf("a delete on the source reached the system: %d tuples, holds %v: %v", fam.Len(), gone, fam.Contains(gone))
	}
	if err := sys.Database().Insert("Family", value.Int(998), value.String("Y"), value.String("D")); err != nil {
		t.Fatal(err)
	}
	if n := db.Relation("Family").Len(); n != 15 {
		t.Errorf("an insert on the system reached the source: %d tuples, want 15", n)
	}

	// The loader shares the tuples: its allocations do not grow with them.
	small, large := generate(15), generate(1500)
	allocs := func(db *storage.Database) float64 {
		return testing.AllocsPerRun(3, func() { NewSystemFromDatabase(db) })
	}
	if a, b := allocs(small), allocs(large); a != b {
		t.Errorf("loading allocates %.0f times at 15 families and %.0f at 1,500; want the same", a, b)
	}
}

// TestAtomCacheKeepsLookalikeParams: the generator's atom cache keys on
// the atom's rendering, so two parameter lists that join alike,
// CV('a,b', c) and CV(a, 'b,c'), must render apart, or one tuple is cited
// with the other's record.
func TestAtomCacheKeepsLookalikeParams(t *testing.T) {
	str := func(name string) schema.Attribute { return schema.Attribute{Name: name, Kind: value.KindString} }
	s := schema.New()
	s.MustAdd(schema.MustRelation("P", []schema.Attribute{{Name: "K", Kind: value.KindInt}, str("A"), str("B")}))
	s.MustAdd(schema.MustRelation("Names", []schema.Attribute{str("A"), str("B"), str("N")}))
	sys := NewSystem(s)
	db := sys.Database()
	for _, err := range []error{
		db.Insert("P", value.Int(1), value.String("a,b"), value.String("c")),
		db.Insert("P", value.Int(2), value.String("a"), value.String("b,c")),
		db.Insert("Names", value.String("a,b"), value.String("c"), value.String("first")),
		db.Insert("Names", value.String("a"), value.String("b,c"), value.String("second")),
		sys.DefineView("lambda A, B. V(K, A, B) :- P(K, A, B)", nil, CitationSpec{
			Query:  "lambda A, B. CV(A, B, N) :- Names(A, B, N)",
			Fields: []string{"", "", format.FieldAuthor},
		}),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	cite, err := sys.Cite("Q(K) :- P(K, A, B)")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"first", "second"}
	if len(cite.Result.Tuples) != len(want) {
		t.Fatalf("%d tuples, want %d", len(cite.Result.Tuples), len(want))
	}
	for i, tc := range cite.Result.Tuples {
		if got := tc.Record[format.FieldAuthor]; len(got) != 1 || got[0] != want[i] {
			t.Errorf("tuple %s: expr %s, authors %v, want [%s]", tc.Tuple, tc.Expr(), got, want[i])
		}
	}
	if got := cite.Result.Record[format.FieldAuthor]; len(got) != len(want) {
		t.Errorf("aggregate authors %v, want %v", got, want)
	}
}
