package citation

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/cq"
	"repro/internal/format"
	"repro/internal/gtopdb"
	"repro/internal/schema"
)

// servingShapes are the four query shapes of the serving benchmark's
// cold and history traffic, each with one constant.
var servingShapes = []string{
	"Q(FName, Desc) :- Family(%[1]d, FName, Desc)",
	"Q(FName, Text) :- Family(%[1]d, FName, Desc), FamilyIntro(%[1]d, Text)",
	"Q(TName, Type) :- Target(%[1]d, FID, TName, Type)",
	"Q(FName, TName) :- Target(%[1]d, FID, TName, Type), Family(FID, FName, Desc)",
}

// servingRegistry registers the serving benchmark's GtoPdb view set with
// its citation queries over s.
func servingRegistry(s *schema.Schema) *Registry {
	reg := NewRegistry(s)
	title := format.NewRecord(format.FieldDatabase, gtopdbTitle)
	for _, v := range []struct {
		view, cite string
		fields     []string
		static     format.Record
	}{
		{"lambda FID. FamilyView(FID, FName, Desc) :- Family(FID, FName, Desc)",
			"lambda FID. CFam(FID, PName) :- Committee(FID, PName)",
			[]string{format.FieldIdentifier, format.FieldAuthor}, title},
		{"FamilyAll(FID, FName, Desc) :- Family(FID, FName, Desc)",
			"CAll(D) :- D = '" + gtopdbTitle + "'", []string{format.FieldDatabase}, nil},
		{"IntroView(FID, Text) :- FamilyIntro(FID, Text)",
			"CIntro(D) :- D = '" + gtopdbTitle + "'", []string{format.FieldDatabase}, nil},
		{"lambda TID. TargetView(TID, FID, TName, Type) :- Target(TID, FID, TName, Type)",
			"lambda TID. CTgt(TID, CName) :- Contributor(TID, CName)",
			[]string{format.FieldIdentifier, format.FieldAuthor}, title},
	} {
		reg.MustAdd(&View{
			Query:     cq.MustParse(v.view),
			Citations: []*CitationQuery{{Query: cq.MustParse(v.cite), Fields: v.fields}},
			Static:    v.static,
		})
	}
	return reg
}

// BenchmarkCiteDistinctConstants cites the four cold shapes over a
// 2,000-family GtoPdb head with a fresh constant per op, so every cite
// misses the atom cache. Queries are parsed before the
// timer, so an op is the generator's work alone: rewriting, planning,
// evaluation and policy aggregation. Views and their columnar blocks
// are warm, and so is the rewriting memo: after the warm-up every
// shape's rewritings are a memo hit with substituted constants.
func BenchmarkCiteDistinctConstants(b *testing.B) {
	const families = 2000
	cfg := gtopdb.DefaultConfig()
	cfg.Families = families
	db := gtopdb.Generate(cfg)
	g := NewGenerator(servingRegistry(db.Schema()), db)
	cite := func(shape, id int) {
		q := cq.MustParse(fmt.Sprintf(servingShapes[shape], id))
		if _, err := g.CiteContext(context.Background(), q, Request{}); err != nil {
			b.Fatal(err)
		}
	}
	// The top two constants warm each shape; the timed cites draw from
	// the rest, so no query repeats before 4·(families-2) ops.
	for s := range servingShapes {
		cite(s, families)
		cite(s, families-1)
	}
	queries := make([]*cq.Query, b.N)
	for i := range queries {
		queries[i] = cq.MustParse(fmt.Sprintf(servingShapes[i%len(servingShapes)], 1+(i/len(servingShapes))%(families-2)))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for _, q := range queries {
		if _, err := g.CiteContext(context.Background(), q, Request{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCiteUncachedBranch cites E3's query, the name and introduction
// of every family, over a 1,000-family GtoPdb snapshot with the serving
// views: every op evaluates both rewritings over the whole answer and
// combines their tables, as every cite does. Atoms, plans and views stay
// warm. Every op checks the tuple count and the record against the first
// cite's.
func BenchmarkCiteUncachedBranch(b *testing.B) {
	cfg := gtopdb.DefaultConfig()
	cfg.Families = 1000
	db := gtopdb.Generate(cfg).Snapshot()
	g := NewGenerator(servingRegistry(db.Schema()), db)
	q := cq.MustParse("Q(FName, Text) :- Family(FID, FName, Desc), FamilyIntro(FID, Text)")
	first, err := g.Cite(q)
	if err != nil {
		b.Fatal(err)
	}
	if len(first.Tuples) < 900 {
		b.Fatalf("%d answer tuples, want about 1,000", len(first.Tuples))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := g.Cite(q)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if len(res.Tuples) != len(first.Tuples) || !reflect.DeepEqual(res.Record, first.Record) {
			b.Fatalf("op %d: %d tuples, record %v; want %d, %v", i, len(res.Tuples), res.Record, len(first.Tuples), first.Record)
		}
		b.StartTimer()
	}
}
