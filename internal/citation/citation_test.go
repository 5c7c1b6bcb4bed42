package citation

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/citeexpr"
	"repro/internal/cq"
	"repro/internal/format"
	"repro/internal/policy"
	"repro/internal/rewrite"
	"repro/internal/schema"
	"repro/internal/storage"
	"repro/internal/value"
)

const gtopdbTitle = "IUPHAR/BPS Guide to PHARMACOLOGY"

// paperSchema builds the paper's GtoPdb fragment: Family, Committee,
// FamilyIntro.
func paperSchema(t *testing.T) *schema.Schema {
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
	return s
}

// paperDatabase loads the Calcitonin double-binding instance from §2.
func paperDatabase(t *testing.T) *storage.Database {
	t.Helper()
	db := storage.NewDatabase(paperSchema(t))
	db.Relation("Family").MustInsert(value.Int(11), value.String("Calcitonin"), value.String("C1"))
	db.Relation("Family").MustInsert(value.Int(12), value.String("Calcitonin"), value.String("C2"))
	db.Relation("FamilyIntro").MustInsert(value.Int(11), value.String("1st"))
	db.Relation("FamilyIntro").MustInsert(value.Int(12), value.String("2nd"))
	db.Relation("Committee").MustInsert(value.Int(11), value.String("Alice"))
	db.Relation("Committee").MustInsert(value.Int(11), value.String("Bob"))
	db.Relation("Committee").MustInsert(value.Int(12), value.String("Carol"))
	db.BuildIndexes()
	return db
}

// paperRegistry registers V1 (parameterized, committee citation), V2 and
// V3 (unparameterized, fixed database citation) from §2.
func paperRegistry(t *testing.T, s *schema.Schema) *Registry {
	t.Helper()
	reg := NewRegistry(s)
	reg.MustAdd(&View{
		Query: cq.MustParse("lambda FID. V1(FID, FName, Desc) :- Family(FID, FName, Desc)"),
		Citations: []*CitationQuery{{
			Query:  cq.MustParse("lambda FID. CV1(FID, PName) :- Committee(FID, PName)"),
			Fields: []string{format.FieldIdentifier, format.FieldAuthor},
		}},
		Static: format.NewRecord(format.FieldDatabase, gtopdbTitle),
	})
	reg.MustAdd(&View{
		Query: cq.MustParse("V2(FID, FName, Desc) :- Family(FID, FName, Desc)"),
		Citations: []*CitationQuery{{
			Query:  cq.MustParse("CV2(D) :- D = '" + gtopdbTitle + "'"),
			Fields: []string{format.FieldDatabase},
		}},
	})
	reg.MustAdd(&View{
		Query: cq.MustParse("V3(FID, Text) :- FamilyIntro(FID, Text)"),
		Citations: []*CitationQuery{{
			Query:  cq.MustParse("CV3(D) :- D = '" + gtopdbTitle + "'"),
			Fields: []string{format.FieldDatabase},
		}},
	})
	return reg
}

func paperGenerator(t *testing.T) *Generator {
	t.Helper()
	s := paperSchema(t)
	// paperDatabase builds its own schema object; rebuild against s so
	// registry and database share schema identity.
	db := storage.NewDatabase(s)
	src := paperDatabase(t)
	for _, rel := range []string{"Family", "Committee", "FamilyIntro"} {
		src.Relation(rel).Scan(func(tp storage.Tuple) bool {
			if _, err := db.Relation(rel).Insert(tp); err != nil {
				t.Fatalf("copy %s: %v", rel, err)
			}
			return true
		})
	}
	db.BuildIndexes()
	return NewGenerator(paperRegistry(t, s), db)
}

// copyingPaperGenerator is paperGenerator over the paper's views with
// swapped heads (swappedHeads): every view is a copy the view cache
// holds, so tests of its retention rules read entries for V1, V2 and V3.
func copyingPaperGenerator(t *testing.T) *Generator {
	t.Helper()
	g := paperGenerator(t)
	return NewGenerator(swappedHeads(g.Registry()), g.Database())
}

var paperQueryText = "Q(FName) :- Family(FID, FName, Desc), FamilyIntro(FID, Text)"

// TestPaperExampleEndToEnd reproduces the paper's §2 example exactly: the
// Calcitonin tuple's citation is (CV1(11)·CV3 + CV1(12)·CV3) +R (CV2·CV3),
// and the min-size +R policy selects CV2·CV3.
func TestPaperExampleEndToEnd(t *testing.T) {
	g := paperGenerator(t)
	res, err := g.Cite(cq.MustParse(paperQueryText))
	if err != nil {
		t.Fatalf("Cite: %v", err)
	}
	if len(res.Rewritings) != 2 {
		t.Fatalf("got %d rewritings, want 2", len(res.Rewritings))
	}
	if len(res.Tuples) != 1 {
		t.Fatalf("got %d answer tuples, want 1 (Calcitonin)", len(res.Tuples))
	}
	tc := res.Tuples[0]
	if got := tc.Tuple[0].Str(); got != "Calcitonin" {
		t.Fatalf("answer tuple %q, want Calcitonin", got)
	}

	// The full expression must be an AltR over two branches.
	altR, ok := tc.Expr().(citeexpr.AltR)
	if !ok {
		t.Fatalf("tuple expression is %T, want AltR", tc.Expr())
	}
	if len(altR.Children) != 2 {
		t.Fatalf("AltR has %d branches, want 2", len(altR.Children))
	}

	// Branch via V1/V3: two bindings (FID 11 and 12), three distinct
	// atoms. Branch via V2/V3: one joint, two atoms.
	var sawParamBranch, sawConstBranch bool
	for _, br := range altR.Children {
		atoms := citeexpr.Atoms(br)
		switch citeexpr.Size(br) {
		case 3:
			var v1Params []string
			for _, a := range atoms {
				if a.View == "V1" {
					if len(a.Params) != 1 {
						t.Errorf("V1 atom has %d params, want 1", len(a.Params))
					} else {
						v1Params = append(v1Params, a.Params[0].String())
					}
				}
			}
			if len(v1Params) != 2 || !(contains(v1Params, "11") && contains(v1Params, "12")) {
				t.Errorf("V1 branch params %v, want [11 12]", v1Params)
			}
			sawParamBranch = true
		case 2:
			names := map[string]bool{}
			for _, a := range atoms {
				names[a.View] = true
			}
			if !names["V2"] || !names["V3"] {
				t.Errorf("2-atom branch uses %v, want V2 and V3", names)
			}
			sawConstBranch = true
		default:
			t.Errorf("unexpected branch size %d: %s", citeexpr.Size(br), br)
		}
	}
	if !sawParamBranch || !sawConstBranch {
		t.Fatalf("missing branch: param=%v const=%v", sawParamBranch, sawConstBranch)
	}

	// Min-size +R selects the CV2·CV3 branch (paper's final step).
	if got := citeexpr.Size(tc.Selected()); got != 2 {
		t.Errorf("selected branch has %d atoms, want 2 (CV2·CV3): %s", got, tc.Selected())
	}
	selAtoms := citeexpr.Atoms(tc.Selected())
	for _, a := range selAtoms {
		if a.View == "V1" {
			t.Errorf("min-size policy selected parameterized branch: %s", tc.Selected())
		}
	}

	// The record under min-size carries only the database title (no
	// committee members).
	if vs := tc.Record[format.FieldDatabase]; len(vs) != 1 || vs[0] != gtopdbTitle {
		t.Errorf("record database field %v, want [%s]", vs, gtopdbTitle)
	}
	if len(tc.Record[format.FieldAuthor]) != 0 {
		t.Errorf("min-size record should have no authors, got %v", tc.Record[format.FieldAuthor])
	}
}

func contains(xs []string, s string) bool {
	for _, x := range xs {
		if x == s {
			return true
		}
	}
	return false
}

// TestPaperExampleMaxCoverage flips +R to max-coverage: the parameterized
// branch is selected and committee members appear in the record.
func TestPaperExampleMaxCoverage(t *testing.T) {
	g := paperGenerator(t)
	p := policy.Default()
	p.AltR = policy.MaxCoverage
	g.SetPolicy(p)
	res, err := g.Cite(cq.MustParse(paperQueryText))
	if err != nil {
		t.Fatalf("Cite: %v", err)
	}
	tc := res.Tuples[0]
	if got := citeexpr.Size(tc.Selected()); got != 3 {
		t.Fatalf("selected branch size %d, want 3", got)
	}
	authors := tc.Record[format.FieldAuthor]
	want := []string{"Alice", "Bob", "Carol"}
	for _, w := range want {
		if !contains(authors, w) {
			t.Errorf("authors %v missing %s", authors, w)
		}
	}
}

// TestCostPrunedMatchesExhaustive verifies that schema-level pruning picks
// the same branch the exhaustive +R evaluation would, without evaluating
// the parameterized rewriting.
func TestCostPrunedMatchesExhaustive(t *testing.T) {
	exhaustive := paperGenerator(t)
	resFull, err := exhaustive.Cite(cq.MustParse(paperQueryText))
	if err != nil {
		t.Fatalf("exhaustive Cite: %v", err)
	}
	pruned := paperGenerator(t)
	pruned.CostPruned = true
	resPruned, err := pruned.Cite(cq.MustParse(paperQueryText))
	if err != nil {
		t.Fatalf("pruned Cite: %v", err)
	}
	if !resPruned.Stats.Pruned {
		t.Fatal("pruned generator did not report pruning")
	}
	if resPruned.Stats.RewritingsEvaluated != 1 {
		t.Fatalf("pruned generator evaluated %d rewritings, want 1", resPruned.Stats.RewritingsEvaluated)
	}
	if len(resFull.Tuples) != len(resPruned.Tuples) {
		t.Fatalf("tuple count mismatch: %d vs %d", len(resFull.Tuples), len(resPruned.Tuples))
	}
	for i := range resFull.Tuples {
		a, b := resFull.Tuples[i], resPruned.Tuples[i]
		if !a.Record.Equal(b.Record) {
			t.Errorf("tuple %d: pruned record %v differs from exhaustive %v", i, b.Record, a.Record)
		}
	}
	if !resFull.Record.Equal(resPruned.Record) {
		t.Errorf("aggregate records differ: %v vs %v", resFull.Record, resPruned.Record)
	}
}

// TestEstimateRewritingSize checks the paper's size claim: the V1-based
// rewriting's estimate is proportional to |Family| (2 distinct FIDs), the
// V2-based one is constant.
func TestEstimateRewritingSize(t *testing.T) {
	g := paperGenerator(t)
	res, err := rewrite.Rewrite(cq.MustParse(paperQueryText), g.Registry().ViewQueries(), rewrite.Options{})
	if err != nil {
		t.Fatalf("Rewrite: %v", err)
	}
	var estV1, estV2 int
	for _, rw := range res.Rewritings {
		est, err := g.EstimateRewritingSize(rw)
		if err != nil {
			t.Fatalf("estimate: %v", err)
		}
		for _, va := range rw.ViewAtoms {
			switch va.ViewName {
			case "V1":
				estV1 = est
			case "V2":
				estV2 = est
			}
		}
	}
	if estV1 != 3 { // 2 distinct FIDs (parameterized V1) + 1 (V3)
		t.Errorf("V1 rewriting estimate %d, want 3", estV1)
	}
	if estV2 != 2 { // V2 (1) + V3 (1)
		t.Errorf("V2 rewriting estimate %d, want 2", estV2)
	}
}

func TestNoRewritingError(t *testing.T) {
	g := paperGenerator(t)
	// Committee is not covered by any view.
	_, err := g.Cite(cq.MustParse("Q(P) :- Committee(F, P)"))
	if !errors.Is(err, ErrNoRewriting) {
		t.Fatalf("err = %v, want ErrNoRewriting", err)
	}
}

func TestPartialFallback(t *testing.T) {
	g := paperGenerator(t)
	g.AllowPartial = true
	// Join Committee (uncovered) with Family (covered by V1/V2).
	res, err := g.Cite(cq.MustParse("Q(FName, PName) :- Family(FID, FName, Desc), Committee(FID, PName)"))
	if err != nil {
		t.Fatalf("Cite: %v", err)
	}
	if len(res.Tuples) != 3 {
		t.Fatalf("got %d tuples, want 3 (Alice, Bob, Carol joins)", len(res.Tuples))
	}
	foundPartial := false
	for _, rw := range res.Rewritings {
		if rw.IsPartial() {
			foundPartial = true
		}
	}
	if !foundPartial {
		t.Error("expected at least one partial rewriting")
	}
	// Every tuple should still get a database citation from V1 or V2.
	for _, tc := range res.Tuples {
		if tc.Record.IsEmpty() {
			t.Errorf("tuple %s has empty citation record", tc.Tuple)
		}
	}
}

func TestParameterizedCitationDiffersPerFamily(t *testing.T) {
	g := paperGenerator(t)
	// Query exposing FID: each family keeps its own citation via V1.
	res, err := g.Cite(cq.MustParse("Q(FID, FName) :- Family(FID, FName, Desc)"))
	if err != nil {
		t.Fatalf("Cite: %v", err)
	}
	if len(res.Tuples) != 2 {
		t.Fatalf("got %d tuples, want 2", len(res.Tuples))
	}
	// Under min-size the unparameterized V2 branch wins for every tuple;
	// switch to max-coverage to exercise the per-tuple distinction.
	p := policy.Default()
	p.AltR = policy.MaxCoverage
	g.SetPolicy(p)
	g.InvalidateCache()
	res, err = g.Cite(cq.MustParse("Q(FID, FName) :- Family(FID, FName, Desc)"))
	if err != nil {
		t.Fatalf("Cite (max-coverage): %v", err)
	}
	byFID := map[string][]string{}
	for _, tc := range res.Tuples {
		byFID[tc.Tuple[0].String()] = tc.Record[format.FieldAuthor]
	}
	if got := byFID["11"]; !(contains(got, "Alice") && contains(got, "Bob") && !contains(got, "Carol")) {
		t.Errorf("family 11 authors %v, want Alice+Bob only", got)
	}
	if got := byFID["12"]; !(contains(got, "Carol") && !contains(got, "Alice")) {
		t.Errorf("family 12 authors %v, want Carol only", got)
	}
}

func TestAggUnionCombinesTupleCitations(t *testing.T) {
	g := paperGenerator(t)
	p := policy.Default()
	p.AltR = policy.MaxCoverage
	g.SetPolicy(p)
	res, err := g.Cite(cq.MustParse("Q(FID, FName) :- Family(FID, FName, Desc)"))
	if err != nil {
		t.Fatalf("Cite: %v", err)
	}
	authors := res.Record[format.FieldAuthor]
	for _, w := range []string{"Alice", "Bob", "Carol"} {
		if !contains(authors, w) {
			t.Errorf("aggregate authors %v missing %s", authors, w)
		}
	}
}

func TestCiteTuple(t *testing.T) {
	g := paperGenerator(t)
	tc, err := g.CiteTuple(cq.MustParse(paperQueryText), storage.Tuple{value.String("Calcitonin")})
	if err != nil {
		t.Fatalf("CiteTuple: %v", err)
	}
	if tc.Tuple[0].Str() != "Calcitonin" {
		t.Fatalf("wrong tuple %s", tc.Tuple)
	}
	if _, err := g.CiteTuple(cq.MustParse(paperQueryText), storage.Tuple{value.String("Nope")}); err == nil {
		t.Fatal("expected error for absent tuple")
	}
}

func TestRegistryValidation(t *testing.T) {
	s := paperSchema(t)
	reg := NewRegistry(s)
	// Unknown relation in view body.
	err := reg.Add(&View{Query: cq.MustParse("V(X) :- Nope(X, Y)")})
	if err == nil {
		t.Error("expected error for unknown relation")
	}
	// Citation query parameter not a view parameter.
	err = reg.Add(&View{
		Query: cq.MustParse("V(FID, FName, Desc) :- Family(FID, FName, Desc)"),
		Citations: []*CitationQuery{{
			Query:  cq.MustParse("lambda FID. CV(FID, P) :- Committee(FID, P)"),
			Fields: []string{"", format.FieldAuthor},
		}},
	})
	if err == nil {
		t.Error("expected error for inconsistent parameters")
	}
	// Fields arity mismatch.
	err = reg.Add(&View{
		Query: cq.MustParse("V(FID, FName, Desc) :- Family(FID, FName, Desc)"),
		Citations: []*CitationQuery{{
			Query:  cq.MustParse("CV(D) :- D = 'x'"),
			Fields: []string{"a", "b"},
		}},
	})
	if err == nil {
		t.Error("expected error for fields arity mismatch")
	}
	// Name collision with base relation.
	err = reg.Add(&View{Query: cq.MustParse("Family(FID, FName, Desc) :- Family(FID, FName, Desc)")})
	if err == nil {
		t.Error("expected error for base-relation name collision")
	}
}

func TestCoverageAnalysis(t *testing.T) {
	g := paperGenerator(t)
	workload := []*cq.Query{
		cq.MustParse("Q1(FName) :- Family(FID, FName, Desc)"),                            // covered (V1 or V2)
		cq.MustParse("Q2(Text) :- FamilyIntro(FID, Text)"),                               // covered (V3)
		cq.MustParse("Q3(P) :- Committee(F, P)"),                                         // uncovered
		cq.MustParse("Q4(FName, P) :- Family(FID, FName, D), Committee(FID, P)"),         // partial
		cq.MustParse("Q5(FName, Text) :- Family(FID, FName, D), FamilyIntro(FID, Text)"), // covered
	}
	rep, err := g.Registry().AnalyzeCoverage(workload, rewrite.MethodMiniCon)
	if err != nil {
		t.Fatalf("AnalyzeCoverage: %v", err)
	}
	if rep.Total != 5 || rep.Covered != 3 || rep.Partial != 1 || rep.Uncovered != 1 {
		t.Errorf("report %+v, want total=5 covered=3 partial=1 uncovered=1", rep)
	}
	if r := rep.CoverageRatio(); r != 0.6 {
		t.Errorf("coverage ratio %v, want 0.6", r)
	}
}

func TestResolveAtomRecordsParams(t *testing.T) {
	g := paperGenerator(t)
	rec, err := g.resolverAt(g.Head(), nil)(citeexpr.NewAtom("V1", value.Int(11)))
	if err != nil {
		t.Fatalf("resolveAtom: %v", err)
	}
	if !contains(rec[format.FieldAuthor], "Alice") || !contains(rec[format.FieldAuthor], "Bob") {
		t.Errorf("authors %v, want Alice and Bob", rec[format.FieldAuthor])
	}
	if contains(rec[format.FieldAuthor], "Carol") {
		t.Errorf("authors %v should not include Carol (family 12)", rec[format.FieldAuthor])
	}
	if !contains(rec[format.FieldDatabase], gtopdbTitle) {
		t.Errorf("static database metadata missing: %v", rec)
	}
	if !contains(rec[format.FieldIdentifier], "11") {
		t.Errorf("identifier field %v should carry the FID", rec[format.FieldIdentifier])
	}
}

func TestCustomCitationFunction(t *testing.T) {
	s := paperSchema(t)
	db := storage.NewDatabase(s)
	db.Relation("Family").MustInsert(value.Int(1), value.String("F"), value.String("D"))
	reg := NewRegistry(s)
	called := false
	reg.MustAdd(&View{
		Query: cq.MustParse("lambda FID. V(FID, FName, Desc) :- Family(FID, FName, Desc)"),
		Fn: func(v *View, params []ParamBinding, rows map[string][]storage.Tuple) format.Record {
			called = true
			rec := format.NewRecord(format.FieldNote, "custom")
			for _, p := range params {
				rec.Add(format.FieldIdentifier, p.Name+"="+p.Value)
			}
			return rec
		},
	})
	g := NewGenerator(reg, db)
	res, err := g.Cite(cq.MustParse("Q(FID, FName) :- Family(FID, FName, Desc)"))
	if err != nil {
		t.Fatalf("Cite: %v", err)
	}
	if !called {
		t.Fatal("custom citation function not invoked")
	}
	if !contains(res.Record[format.FieldIdentifier], "FID=1") {
		t.Errorf("record %v missing parameter binding", res.Record)
	}
	if !strings.Contains(format.Text(res.Record), "custom") {
		t.Errorf("text rendering missing custom note: %s", format.Text(res.Record))
	}
}
