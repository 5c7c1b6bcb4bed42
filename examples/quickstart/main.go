// Command quickstart reproduces the paper's §2 worked example end to end:
// the GtoPdb Family/Committee/FamilyIntro fragment, citation views V1, V2
// and V3, the query Q(FName) :- Family ⋈ FamilyIntro, the two rewritings,
// the Calcitonin double binding, and the min-size +R selection of CV2·CV3.
package main

import (
	"fmt"
	"log"

	datacitation "repro"
)

const gtopdbTitle = "IUPHAR/BPS Guide to PHARMACOLOGY"

func main() {
	// 1. Schema: the paper's three relations.
	s := datacitation.NewSchema()
	mustAdd := func(name string, attrs []datacitation.Attribute, keys ...string) {
		r, err := datacitation.NewRelationSchema(name, attrs, keys...)
		if err != nil {
			log.Fatal(err)
		}
		s.MustAdd(r)
	}
	mustAdd("Family", []datacitation.Attribute{
		{Name: "FID", Kind: datacitation.KindInt},
		{Name: "FName", Kind: datacitation.KindString},
		{Name: "Desc", Kind: datacitation.KindString},
	}, "FID")
	mustAdd("Committee", []datacitation.Attribute{
		{Name: "FID", Kind: datacitation.KindInt},
		{Name: "PName", Kind: datacitation.KindString},
	})
	mustAdd("FamilyIntro", []datacitation.Attribute{
		{Name: "FID", Kind: datacitation.KindInt},
		{Name: "Text", Kind: datacitation.KindString},
	}, "FID")

	sys := datacitation.NewSystem(s)
	db := sys.Database()

	// 2. Data: two families sharing the name Calcitonin (the paper's
	// multiple-binding situation).
	ins := func(rel string, vals ...datacitation.Value) {
		if err := db.Insert(rel, vals...); err != nil {
			log.Fatal(err)
		}
	}
	ins("Family", datacitation.Int(11), datacitation.String("Calcitonin"), datacitation.String("C1"))
	ins("Family", datacitation.Int(12), datacitation.String("Calcitonin"), datacitation.String("C2"))
	ins("FamilyIntro", datacitation.Int(11), datacitation.String("1st"))
	ins("FamilyIntro", datacitation.Int(12), datacitation.String("2nd"))
	ins("Committee", datacitation.Int(11), datacitation.String("Alice Smith"))
	ins("Committee", datacitation.Int(11), datacitation.String("Bob Jones"))
	ins("Committee", datacitation.Int(12), datacitation.String("Carol Chen"))

	// 3. Citation views, exactly as in the paper.
	must := func(err error) {
		if err != nil {
			log.Fatal(err)
		}
	}
	must(sys.DefineView(
		"lambda FID. V1(FID, FName, Desc) :- Family(FID, FName, Desc)",
		datacitation.NewRecord(datacitation.FieldDatabase, gtopdbTitle),
		datacitation.CitationSpec{
			Query:  "lambda FID. CV1(FID, PName) :- Committee(FID, PName)",
			Fields: []string{datacitation.FieldIdentifier, datacitation.FieldAuthor},
		}))
	must(sys.DefineView(
		"V2(FID, FName, Desc) :- Family(FID, FName, Desc)",
		nil,
		datacitation.CitationSpec{
			Query:  "CV2(D) :- D = '" + gtopdbTitle + "'",
			Fields: []string{datacitation.FieldDatabase},
		}))
	must(sys.DefineView(
		"V3(FID, Text) :- FamilyIntro(FID, Text)",
		nil,
		datacitation.CitationSpec{
			Query:  "CV3(D) :- D = '" + gtopdbTitle + "'",
			Fields: []string{datacitation.FieldDatabase},
		}))

	// 4. Version the data so citations carry a fixity pin.
	info := sys.Commit("initial public release")
	fmt.Printf("committed version %d (%d tuples)\n\n", info.Version, info.Tuples)

	// 5. Cite the paper's query.
	cite, err := sys.Cite("Q(FName) :- Family(FID, FName, Desc), FamilyIntro(FID, Text)")
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("query has %d equivalent rewritings:\n", len(cite.Result.Rewritings))
	for _, rw := range cite.Result.Rewritings {
		fmt.Printf("  %s\n", rw)
	}
	fmt.Println()
	for _, tc := range cite.Result.Tuples {
		fmt.Printf("tuple %s\n", tc.Tuple)
		fmt.Printf("  formal citation: %s\n", tc.Expr())
		fmt.Printf("  +R (min-size) selects: %s\n", tc.Selected())
		fmt.Printf("  record: %s\n", datacitation.FormatText(tc.Record))
	}

	fmt.Println("\n-- human readable --")
	fmt.Println(cite.Text())
	fmt.Println("\n-- BibTeX --")
	fmt.Println(cite.BibTeX("gtopdb-calcitonin"))
	fmt.Println("\n-- RIS --")
	fmt.Print(cite.RIS())
	xmlOut, err := cite.XML()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n-- XML --")
	fmt.Println(xmlOut)
}
