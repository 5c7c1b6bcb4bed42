package datacitation_test

// Black-box tests of the public API: everything a downstream user touches
// goes through the root package.

import (
	"errors"
	"strings"
	"testing"

	datacitation "repro"
)

func buildSystem(t *testing.T) *datacitation.System {
	t.Helper()
	s := datacitation.NewSchema()
	family, err := datacitation.NewRelationSchema("Family", []datacitation.Attribute{
		{Name: "FID", Kind: datacitation.KindInt},
		{Name: "FName", Kind: datacitation.KindString},
		{Name: "Desc", Kind: datacitation.KindString},
	}, "FID")
	if err != nil {
		t.Fatal(err)
	}
	s.MustAdd(family)
	committee, err := datacitation.NewRelationSchema("Committee", []datacitation.Attribute{
		{Name: "FID", Kind: datacitation.KindInt},
		{Name: "PName", Kind: datacitation.KindString},
	})
	if err != nil {
		t.Fatal(err)
	}
	s.MustAdd(committee)

	sys := datacitation.NewSystem(s)
	db := sys.Database()
	rows := [][]datacitation.Value{
		{datacitation.Int(1), datacitation.String("Calcitonin"), datacitation.String("C1")},
		{datacitation.Int(2), datacitation.String("Adenosine"), datacitation.String("A1")},
	}
	for _, r := range rows {
		if err := db.Insert("Family", r...); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Insert("Committee", datacitation.Int(1), datacitation.String("Alice")); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("Committee", datacitation.Int(2), datacitation.String("Bob")); err != nil {
		t.Fatal(err)
	}
	db.BuildIndexes()

	if err := sys.DefineView(
		"lambda FID. FamView(FID, FName, Desc) :- Family(FID, FName, Desc)",
		datacitation.NewRecord(datacitation.FieldDatabase, "GtoPdb"),
		datacitation.CitationSpec{
			Query:  "lambda FID. CFam(FID, PName) :- Committee(FID, PName)",
			Fields: []string{datacitation.FieldIdentifier, datacitation.FieldAuthor},
		}); err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestPublicAPICiteLifecycle(t *testing.T) {
	sys := buildSystem(t)
	sys.Commit("release 1")
	cite, err := sys.Cite("Q(FID, FName) :- Family(FID, FName, Desc)")
	if err != nil {
		t.Fatal(err)
	}
	if len(cite.Result.Tuples) != 2 {
		t.Fatalf("tuples %d", len(cite.Result.Tuples))
	}
	if cite.Pin == nil || cite.Pin.Version != 1 {
		t.Fatalf("pin %+v", cite.Pin)
	}
	txt := cite.Text()
	if !strings.Contains(txt, "GtoPdb") || !strings.Contains(txt, "version=1") {
		t.Errorf("text %q", txt)
	}
}

func TestPublicAPIPolicySwitch(t *testing.T) {
	sys := buildSystem(t)
	if err := sys.SetPolicyNamed("maxcoverage"); err != nil {
		t.Fatal(err)
	}
	cite, err := sys.Cite("Q(FID, FName) :- Family(FID, FName, Desc)")
	if err != nil {
		t.Fatal(err)
	}
	authors := cite.Result.Record[datacitation.FieldAuthor]
	if len(authors) != 2 {
		t.Errorf("authors %v, want Alice and Bob", authors)
	}
}

func TestPublicAPIErrNoRewriting(t *testing.T) {
	sys := buildSystem(t)
	_, err := sys.Cite("Q(P) :- Committee(F, P)")
	if !errors.Is(err, datacitation.ErrNoRewriting) {
		t.Fatalf("err = %v, want ErrNoRewriting", err)
	}
}

func TestPublicAPIExprSize(t *testing.T) {
	sys := buildSystem(t)
	cite, err := sys.Cite("Q(FID, FName) :- Family(FID, FName, Desc)")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range cite.Result.Tuples {
		if datacitation.ExprSize(tc.Selected()) == 0 {
			t.Errorf("tuple %s has empty citation expression", tc.Tuple)
		}
	}
}

func TestPublicAPIQueryParsing(t *testing.T) {
	q, err := datacitation.ParseQuery("lambda A. V(A, B) :- R(A, B)")
	if err != nil {
		t.Fatal(err)
	}
	if !q.IsParameterized() {
		t.Error("parameters lost")
	}
	if _, err := datacitation.ParseQuery("broken(("); err == nil {
		t.Error("bad query accepted")
	}
}

func TestPublicAPIFormatters(t *testing.T) {
	rec := datacitation.NewRecord(
		datacitation.FieldAuthor, "A",
		datacitation.FieldTitle, "T",
	)
	if out := datacitation.FormatText(rec); !strings.Contains(out, "A") {
		t.Errorf("text %q", out)
	}
	if out := datacitation.FormatBibTeX(rec, "key"); !strings.Contains(out, "@misc{key,") {
		t.Errorf("bibtex %q", out)
	}
	if out := datacitation.FormatRIS(rec); !strings.HasPrefix(out, "TY  - DBASE") {
		t.Errorf("ris %q", out)
	}
	if out, err := datacitation.FormatXML(rec); err != nil || !strings.Contains(out, "<citation>") {
		t.Errorf("xml %q err %v", out, err)
	}
	if out, err := datacitation.FormatJSON(rec); err != nil || !strings.Contains(out, "\"author\"") {
		t.Errorf("json %q err %v", out, err)
	}
}

func TestPublicAPIArchive(t *testing.T) {
	sys := buildSystem(t)
	if err := sys.SetPolicyNamed("maxcoverage"); err != nil {
		t.Fatal(err)
	}
	cite, err := sys.Cite("Q(FID, FName) :- Family(FID, FName, Desc)")
	if err != nil {
		t.Fatal(err)
	}
	store := datacitation.NewCiteStore()
	ref, compact := cite.Archive(store)
	if len(ref) == 0 || !strings.Contains(compact, ref) {
		t.Fatalf("ref %q compact %q", ref, compact)
	}
	ext, ok := store.Get(ref)
	if !ok {
		t.Fatal("archived citation not resolvable")
	}
	if !ext.Record.Equal(cite.Result.Record) {
		t.Error("archived record differs")
	}
	// Searchable by curator.
	if refs := store.Search(datacitation.FieldAuthor, "Alice"); len(refs) != 1 || refs[0] != ref {
		t.Errorf("search %v", refs)
	}
	// Idempotent.
	ref2, _ := cite.Archive(store)
	if ref2 != ref || store.Len() != 1 {
		t.Error("archive not idempotent")
	}
}

func TestPublicAPIRewriteMethods(t *testing.T) {
	sys := buildSystem(t)
	sys.Generator().Method = datacitation.Bucket
	cite, err := sys.Cite("Q(FID, FName) :- Family(FID, FName, Desc)")
	if err != nil {
		t.Fatal(err)
	}
	if len(cite.Result.Tuples) != 2 {
		t.Errorf("bucket method tuples %d", len(cite.Result.Tuples))
	}
}
