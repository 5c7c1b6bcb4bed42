// Command gtopdb runs the citation pipeline on a synthetic IUPHAR/BPS
// Guide to Pharmacology instance at configurable scale: it defines
// family- and target-level citation views, cites several realistic
// queries, and contrasts the min-size and max-coverage +R policies — the
// trade-off the paper's closing example is about.
package main

import (
	"flag"
	"fmt"
	"log"

	datacitation "repro"
	"repro/internal/gtopdb"
)

const title = "IUPHAR/BPS Guide to PHARMACOLOGY"

func main() {
	families := flag.Int("families", 200, "number of drug-target families")
	flag.Parse()

	cfg := gtopdb.DefaultConfig()
	cfg.Families = *families
	db := gtopdb.Generate(cfg)
	sys := datacitation.NewSystemFromDatabase(db)

	must := func(err error) {
		if err != nil {
			log.Fatal(err)
		}
	}
	// Family-level parameterized view: per-family committee credit.
	must(sys.DefineView(
		"lambda FID. FamilyView(FID, FName, Desc) :- Family(FID, FName, Desc)",
		datacitation.NewRecord(datacitation.FieldDatabase, title),
		datacitation.CitationSpec{
			Query:  "lambda FID. CFam(FID, PName) :- Committee(FID, PName)",
			Fields: []string{datacitation.FieldIdentifier, datacitation.FieldAuthor},
		}))
	// Whole-database view: one fixed citation for all families.
	must(sys.DefineView(
		"FamilyAll(FID, FName, Desc) :- Family(FID, FName, Desc)",
		nil,
		datacitation.CitationSpec{
			Query:  "CAll(D) :- D = '" + title + "'",
			Fields: []string{datacitation.FieldDatabase},
		}))
	// Intro view.
	must(sys.DefineView(
		"IntroView(FID, Text) :- FamilyIntro(FID, Text)",
		nil,
		datacitation.CitationSpec{
			Query:  "CIntro(D) :- D = '" + title + "'",
			Fields: []string{datacitation.FieldDatabase},
		}))
	// Target-level parameterized view: per-target contributor credit.
	must(sys.DefineView(
		"lambda TID. TargetView(TID, FID, TName, Type) :- Target(TID, FID, TName, Type)",
		datacitation.NewRecord(datacitation.FieldDatabase, title),
		datacitation.CitationSpec{
			Query:  "lambda TID. CTgt(TID, CName) :- Contributor(TID, CName)",
			Fields: []string{datacitation.FieldIdentifier, datacitation.FieldAuthor},
		}))

	sys.Commit("2026.1 release")

	queries := []struct {
		label string
		src   string
	}{
		{"families with their intros", "Q1(FName, Text) :- Family(FID, FName, Desc), FamilyIntro(FID, Text)"},
		{"GPCR targets by family", "Q2(FName, TName) :- Family(FID, FName, Desc), Target(TID, FID, TName, 'GPCR')"},
		{"all family names", "Q3(FID, FName) :- Family(FID, FName, Desc)"},
	}

	for _, qc := range queries {
		fmt.Printf("== %s ==\n   %s\n", qc.label, qc.src)
		cite, err := sys.Cite(qc.src)
		if err != nil {
			fmt.Printf("   no citation: %v\n\n", err)
			continue
		}
		fmt.Printf("   rewritings: %d, answer tuples: %d, atoms resolved: %d\n",
			cite.Result.Stats.RewritingsFound, len(cite.Result.Tuples), cite.Result.Stats.AtomsResolved)
		fmt.Printf("   min-size citation: %s\n", cite.Text())

		// Contrast with max-coverage: full credit to every curator.
		if err := sys.SetPolicyNamed("maxcoverage"); err != nil {
			log.Fatal(err)
		}
		full, err := sys.Cite(qc.src)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("   max-coverage citation size: %d field/value pairs (min-size: %d)\n",
			full.Result.Record.Size(), cite.Result.Record.Size())
		fmt.Printf("   max-coverage authors credited: %d\n\n",
			len(full.Result.Record[datacitation.FieldAuthor]))
		if err := sys.SetPolicyNamed("minsize"); err != nil {
			log.Fatal(err)
		}
	}

	// Cost-pruned generation: estimate at the schema level, evaluate one
	// rewriting only.
	g := sys.Generator()
	g.CostPruned = true
	cite, err := sys.Cite(queries[0].src)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cost-pruned run: evaluated %d of %d rewritings (pruned=%v)\n",
		cite.Result.Stats.RewritingsEvaluated, cite.Result.Stats.RewritingsFound,
		cite.Result.Stats.Pruned)
}
