// Command evolution demonstrates the paper's §3 "fixity" and "citation
// evolution" challenges together: citations are pinned to committed
// versions (re-executable and digest-verifiable), and as the database
// evolves a maintainer keeps its own materialized views current
// incrementally instead of recomputing them.
package main

import (
	"fmt"
	"log"

	datacitation "repro"
	"repro/internal/evolution"
	"repro/internal/gtopdb"
	"repro/internal/value"
)

func main() {
	cfg := gtopdb.DefaultConfig()
	cfg.Families = 100
	db := gtopdb.Generate(cfg)
	sys := datacitation.NewSystemFromDatabase(db)

	must := func(err error) {
		if err != nil {
			log.Fatal(err)
		}
	}
	must(sys.DefineView(
		"lambda FID. FamilyView(FID, FName, Desc) :- Family(FID, FName, Desc)",
		datacitation.NewRecord(datacitation.FieldDatabase, "IUPHAR/BPS Guide to PHARMACOLOGY"),
		datacitation.CitationSpec{
			Query:  "lambda FID. CFam(FID, PName) :- Committee(FID, PName)",
			Fields: []string{datacitation.FieldIdentifier, datacitation.FieldAuthor},
		}))
	must(sys.DefineView(
		"IntroView(FID, Text) :- FamilyIntro(FID, Text)",
		nil,
		datacitation.CitationSpec{
			Query:  "CIntro(D) :- D = 'IUPHAR/BPS Guide to PHARMACOLOGY'",
			Fields: []string{datacitation.FieldDatabase},
		}))

	// --- Fixity -----------------------------------------------------------
	sys.Commit("release 2026.1")
	query := "Q(FName, Text) :- Family(FID, FName, Desc), FamilyIntro(FID, Text)"
	cite, err := sys.Cite(query)
	if err != nil {
		log.Fatal(err)
	}
	pin := *cite.Pin
	fmt.Printf("cited at version %d: %d tuples, digest %s…\n", pin.Version, pin.Tuples, pin.Digest[:12])

	// The database evolves: a family is renamed and a new one added.
	head := sys.Database()
	if _, err := head.Delete("Family", headLookup(sys, 1)...); err != nil {
		log.Fatal(err)
	}
	must(head.Insert("Family", datacitation.Int(1), datacitation.String("Renamed receptors"), datacitation.String("renamed")))
	must(head.Insert("Family", datacitation.Int(999), datacitation.String("Novel receptors"), datacitation.String("new family")))
	must(head.Insert("FamilyIntro", datacitation.Int(999), datacitation.String("Intro for the novel family.")))
	sys.Commit("release 2026.2")

	// The pinned citation still verifies against its own version even
	// though the head has moved on.
	ok, err := sys.Store().Verify(pin)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("pin verifies against version %d after the data changed: %v\n", pin.Version, ok)

	// Executing against the new version yields a different digest.
	q := datacitation.MustParseQuery(query)
	_, pin2, err := sys.Store().ExecuteLatest(q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("same query at version %d: %d tuples, digest %s… (changed: %v)\n\n",
		pin2.Version, pin2.Tuples, pin2.Digest[:12], pin2.Digest != pin.Digest)

	// --- Incremental maintenance ------------------------------------------
	// The maintainer materializes its own instance of every view, then
	// writes each update through the system and patches only the view rows
	// the update can affect.
	m, err := evolution.NewMaintainer(sys)
	if err != nil {
		log.Fatal(err)
	}
	var deltas []evolution.Delta
	for i := 0; i < 50; i++ {
		fid := int64(2000 + i)
		deltas = append(deltas,
			evolution.Insert("Family", tuple(value.Int(fid), value.String(fmt.Sprintf("Batch family %d", i)), value.String("batch"))),
			evolution.Insert("Committee", tuple(value.Int(fid), value.String("New Curator"))),
		)
	}
	must(m.ApplyBatch(deltas))
	fmt.Printf("incremental: %d deltas, %d rows rechecked, %d inserted\n",
		m.Stats.DeltasApplied, m.Stats.RowsRechecked, m.Stats.RowsInserted)
	fmt.Printf("FamilyView now has %d rows without any full rebuild\n", m.View("FamilyView").Len())

	// Each write evicted the citation generator's cache entries that read
	// its relation, so the next cite re-materializes the generator's own
	// views over the updated head.
	cite, err = sys.Cite("Q2(FID, FName) :- Family(FID, FName, Desc)")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("post-update citation generated over %d tuples\n", len(cite.Result.Tuples))
}

// headLookup fetches the full current tuple of family fid so it can be
// deleted by value.
func headLookup(sys *datacitation.System, fid int64) []datacitation.Value {
	rel := sys.Database().Relation("Family")
	rows := rel.Lookup(0, datacitation.Int(fid))
	if len(rows) == 0 {
		log.Fatalf("family %d not found", fid)
	}
	return rows[0]
}

func tuple(vals ...value.Value) []value.Value { return vals }
