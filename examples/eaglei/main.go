// Command eaglei runs the citation pipeline on a relational encoding of an
// eagle-i-like resource catalogue. eagle-i's citation guidance depends on
// the *class* of the resource (paper §3, "Other models": "the citation
// depends on the class of resource"); we model that with one
// class-specialized citation view per resource class — the view query pins
// the Class column, so the rewriting engine automatically picks the view
// matching the class the query asks about — plus a generic whole-catalogue
// view acting as the coarse fallback for cross-class queries.
package main

import (
	"flag"
	"fmt"
	"log"

	datacitation "repro"
	"repro/internal/gtopdb"
)

func main() {
	resources := flag.Int("resources", 200, "number of resources")
	flag.Parse()

	cfg := gtopdb.DefaultEagleIConfig()
	cfg.Resources = *resources
	db := gtopdb.GenerateEagleI(cfg)
	sys := datacitation.NewSystemFromDatabase(db)

	must := func(err error) {
		if err != nil {
			log.Fatal(err)
		}
	}
	// One view per resource class, each with class-specific citation
	// wording and a per-resource parameterized provider credit.
	for _, class := range []string{"CellLine", "Software", "Antibody", "MouseModel", "Protocol"} {
		static := datacitation.NewRecord(
			datacitation.FieldDatabase, "eagle-i",
			datacitation.FieldNote, "cite as "+class+" resource per eagle-i guidance",
		)
		must(sys.DefineView(
			fmt.Sprintf("lambda RID. %sView(RID, Label) :- Resource(RID, '%s', Label)", class, class),
			static,
			datacitation.CitationSpec{
				Query:  fmt.Sprintf("lambda RID. C%s(RID, Lab) :- Provider(RID, Lab)", class),
				Fields: []string{datacitation.FieldIdentifier, datacitation.FieldAuthor},
			}))
	}
	// Generic whole-catalogue view: the coarse citation for queries that
	// span resource classes (no class-specific view can cover those —
	// a class-restricted view loses the other classes' tuples).
	must(sys.DefineView(
		"ResourceView(RID, Class, Label) :- Resource(RID, Class, Label)",
		nil,
		datacitation.CitationSpec{
			Query:  "CRes(D) :- D = 'eagle-i resource catalogue'",
			Fields: []string{datacitation.FieldDatabase},
		}))
	// Provider and institution links are citable as a whole.
	must(sys.DefineView(
		"ProviderView(RID, LabName) :- Provider(RID, LabName)",
		nil,
		datacitation.CitationSpec{
			Query:  "CProv(D) :- D = 'eagle-i provider registry'",
			Fields: []string{datacitation.FieldTitle},
		}))
	must(sys.DefineView(
		"InstView(LabName, InstName) :- Institution(LabName, InstName)",
		nil,
		datacitation.CitationSpec{
			Query:  "CInst(D) :- D = 'eagle-i institution registry'",
			Fields: []string{datacitation.FieldTitle},
		}))

	sys.Commit("catalogue snapshot")

	// Class-specific citations want the full provider credit: use the
	// max-coverage +R policy so the class view beats the generic one.
	must(sys.SetPolicyNamed("maxcoverage"))

	queries := []struct{ label, src string }{
		{"cell lines", "Q1(RID, Label) :- Resource(RID, 'CellLine', Label)"},
		{"software with institution", "Q2(Label, Inst) :- Resource(RID, 'Software', Label), Provider(RID, Lab), Institution(Lab, Inst)"},
		{"resources of any class", "Q3(RID, Label) :- Resource(RID, Class, Label)"},
	}
	for _, qc := range queries {
		fmt.Printf("== %s ==\n   %s\n", qc.label, qc.src)
		cite, err := sys.Cite(qc.src)
		if err != nil {
			fmt.Printf("   no citation: %v\n\n", err)
			continue
		}
		fmt.Printf("   rewritings: %d  tuples: %d\n", cite.Result.Stats.RewritingsFound, len(cite.Result.Tuples))
		fmt.Printf("   %s\n\n", cite.Text())
	}

	// The same class-pinned query under min-size falls back to the
	// generic catalogue citation — the policy trade-off in action.
	must(sys.SetPolicyNamed("minsize"))
	cite, err := sys.Cite(queries[0].src)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("same cell-line query under min-size +R: %s\n",
		datacitation.FormatText(cite.Result.Record))
}
