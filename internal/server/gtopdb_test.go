package server

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/format"
	"repro/internal/gtopdb"
)

const gtopdbTitle = "IUPHAR/BPS Guide to PHARMACOLOGY"

// gtopdbSystem builds the synthetic GtoPdb instance with the four-view
// set of examples/gtopdb, the one the cmd/citeload benchmark serves, and
// commits it as version 1. The store clock is synthetic, so two systems
// built the same way pin byte-identical timestamps.
func gtopdbSystem(tb testing.TB, families int) *core.System {
	tb.Helper()
	cfg := gtopdb.DefaultConfig()
	cfg.Families = families
	sys := core.NewSystemFromDatabase(gtopdb.Generate(cfg))
	var mu sync.Mutex
	tick := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	sys.Store().SetClock(func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		tick = tick.Add(time.Second)
		return tick
	})
	views := []struct {
		src    string
		static format.Record
		spec   core.CitationSpec
	}{
		{"lambda FID. FamilyView(FID, FName, Desc) :- Family(FID, FName, Desc)",
			format.NewRecord(format.FieldDatabase, gtopdbTitle),
			core.CitationSpec{Query: "lambda FID. CFam(FID, PName) :- Committee(FID, PName)",
				Fields: []string{format.FieldIdentifier, format.FieldAuthor}}},
		{"FamilyAll(FID, FName, Desc) :- Family(FID, FName, Desc)", nil,
			core.CitationSpec{Query: "CAll(D) :- D = '" + gtopdbTitle + "'", Fields: []string{format.FieldDatabase}}},
		{"IntroView(FID, Text) :- FamilyIntro(FID, Text)", nil,
			core.CitationSpec{Query: "CIntro(D) :- D = '" + gtopdbTitle + "'", Fields: []string{format.FieldDatabase}}},
		{"lambda TID. TargetView(TID, FID, TName, Type) :- Target(TID, FID, TName, Type)",
			format.NewRecord(format.FieldDatabase, gtopdbTitle),
			core.CitationSpec{Query: "lambda TID. CTgt(TID, CName) :- Contributor(TID, CName)",
				Fields: []string{format.FieldIdentifier, format.FieldAuthor}}},
	}
	for _, v := range views {
		if err := sys.DefineView(v.src, v.static, v.spec); err != nil {
			tb.Fatal(err)
		}
	}
	sys.Commit("release 1")
	return sys
}

// gtopdbQuery renders one of citeload's four cite shapes for the FID or
// TID constant id.
func gtopdbQuery(shape, id int) string {
	return fmt.Sprintf([]string{
		"Q(FName, Desc) :- Family(%[1]d, FName, Desc)",
		"Q(FName, Text) :- Family(%[1]d, FName, Desc), FamilyIntro(%[1]d, Text)",
		"Q(TName, Type) :- Target(%[1]d, FID, TName, Type)",
		"Q(FName, TName) :- Target(%[1]d, FID, TName, Type), Family(FID, FName, Desc)",
	}[shape], id)
}
