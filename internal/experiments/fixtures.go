package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/cq"
	"repro/internal/format"
	"repro/internal/gtopdb"
	"repro/internal/schema"
	"repro/internal/storage"
	"repro/internal/value"
)

// GtoPdbTitle is the running-example database title.
const GtoPdbTitle = "IUPHAR/BPS Guide to PHARMACOLOGY"

// PaperSystem builds the exact §2 instance: schema, Calcitonin data, and
// views V1/V2/V3.
func PaperSystem() (*core.System, error) {
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
	sys := core.NewSystem(s)
	db := sys.Database()
	rows := []struct {
		rel  string
		vals []value.Value
	}{
		{"Family", []value.Value{value.Int(11), value.String("Calcitonin"), value.String("C1")}},
		{"Family", []value.Value{value.Int(12), value.String("Calcitonin"), value.String("C2")}},
		{"FamilyIntro", []value.Value{value.Int(11), value.String("1st")}},
		{"FamilyIntro", []value.Value{value.Int(12), value.String("2nd")}},
		{"Committee", []value.Value{value.Int(11), value.String("Alice")}},
		{"Committee", []value.Value{value.Int(11), value.String("Bob")}},
		{"Committee", []value.Value{value.Int(12), value.String("Carol")}},
	}
	for _, r := range rows {
		if err := db.Insert(r.rel, r.vals...); err != nil {
			return nil, err
		}
	}
	if err := addPaperViews(sys); err != nil {
		return nil, err
	}
	return sys, nil
}

func addPaperViews(sys *core.System) error {
	if err := sys.DefineView(
		"lambda FID. V1(FID, FName, Desc) :- Family(FID, FName, Desc)",
		format.NewRecord(format.FieldDatabase, GtoPdbTitle),
		core.CitationSpec{
			Query:  "lambda FID. CV1(FID, PName) :- Committee(FID, PName)",
			Fields: []string{format.FieldIdentifier, format.FieldAuthor},
		}); err != nil {
		return err
	}
	if err := sys.DefineView(
		"V2(FID, FName, Desc) :- Family(FID, FName, Desc)", nil,
		core.CitationSpec{
			Query:  "CV2(D) :- D = '" + GtoPdbTitle + "'",
			Fields: []string{format.FieldDatabase},
		}); err != nil {
		return err
	}
	return sys.DefineView(
		"V3(FID, Text) :- FamilyIntro(FID, Text)", nil,
		core.CitationSpec{
			Query:  "CV3(D) :- D = '" + GtoPdbTitle + "'",
			Fields: []string{format.FieldDatabase},
		})
}

// PaperQuery is the §2 query over Family ⋈ FamilyIntro.
func PaperQuery() *cq.Query {
	return cq.MustParse("Q(FName) :- Family(FID, FName, Desc), FamilyIntro(FID, Text)")
}

// GtoPdbSystem builds a synthetic GtoPdb instance of the given family
// count with the standard family/intro views registered.
func GtoPdbSystem(families int) (*core.System, error) {
	cfg := gtopdb.DefaultConfig()
	cfg.Families = families
	db := gtopdb.Generate(cfg)
	sys := core.NewSystemFromDatabase(db)
	if err := sys.DefineView(
		"lambda FID. FamilyView(FID, FName, Desc) :- Family(FID, FName, Desc)",
		format.NewRecord(format.FieldDatabase, GtoPdbTitle),
		core.CitationSpec{
			Query:  "lambda FID. CFam(FID, PName) :- Committee(FID, PName)",
			Fields: []string{format.FieldIdentifier, format.FieldAuthor},
		}); err != nil {
		return nil, err
	}
	if err := sys.DefineView(
		"FamilyAll(FID, FName, Desc) :- Family(FID, FName, Desc)", nil,
		core.CitationSpec{
			Query:  "CAll(D) :- D = '" + GtoPdbTitle + "'",
			Fields: []string{format.FieldDatabase},
		}); err != nil {
		return nil, err
	}
	if err := sys.DefineView(
		"IntroView(FID, Text) :- FamilyIntro(FID, Text)", nil,
		core.CitationSpec{
			Query:  "CIntro(D) :- D = '" + GtoPdbTitle + "'",
			Fields: []string{format.FieldDatabase},
		}); err != nil {
		return nil, err
	}
	return sys, nil
}

// GtoPdbSystemWithViews builds a GtoPdb instance and registers the given
// view queries, each with a generic whole-database citation.
func GtoPdbSystemWithViews(families int, viewSrcs []string) (*core.System, error) {
	cfg := gtopdb.DefaultConfig()
	cfg.Families = families
	db := gtopdb.Generate(cfg)
	sys := core.NewSystemFromDatabase(db)
	for i, src := range viewSrcs {
		if err := sys.DefineView(src, nil, core.CitationSpec{
			Query:  fmt.Sprintf("CGen%d(D) :- D = '%s'", i, GtoPdbTitle),
			Fields: []string{format.FieldDatabase},
		}); err != nil {
			return nil, err
		}
	}
	return sys, nil
}

// ChainSetup is a synthetic rewriting workload: a chain query of length
// joins over binary relations R0..R{joins-1}, and `copies` interchangeable
// views per relation (so the number of equivalent rewritings is
// copies^joins — the paper's "infeasible to go through all rewritings"
// regime).
type ChainSetup struct {
	Schema *schema.Schema
	DB     *storage.Database
	Views  []*cq.Query
	Query  *cq.Query
	Sys    *core.System
}

// NewChainSetup builds the chain workload with tuplesPerRel rows per base
// relation (chained values so joins are non-empty).
func NewChainSetup(joins, copies, tuplesPerRel int) (*ChainSetup, error) {
	s := schema.New()
	for i := 0; i < joins; i++ {
		s.MustAdd(schema.MustRelation(fmt.Sprintf("R%d", i), []schema.Attribute{
			{Name: "A", Kind: value.KindInt},
			{Name: "B", Kind: value.KindInt},
		}))
	}
	sys := core.NewSystem(s)
	db := sys.Database()
	for i := 0; i < joins; i++ {
		rel := fmt.Sprintf("R%d", i)
		for t := 0; t < tuplesPerRel; t++ {
			if err := db.Insert(rel, value.Int(int64(t)), value.Int(int64(t))); err != nil {
				return nil, err
			}
		}
	}
	cs := &ChainSetup{Schema: s, DB: db, Sys: sys}
	for i := 0; i < joins; i++ {
		for c := 0; c < copies; c++ {
			name := fmt.Sprintf("V%d_%d", i, c)
			src := fmt.Sprintf("lambda A. %s(A, B) :- R%d(A, B)", name, i)
			cs.Views = append(cs.Views, cq.MustParse(src))
			if err := sys.DefineView(src, format.NewRecord(format.FieldDatabase, "chain"), core.CitationSpec{
				Query:  fmt.Sprintf("lambda A. C%s(A, B) :- R%d(A, B)", name, i),
				Fields: []string{format.FieldIdentifier, ""},
			}); err != nil {
				return nil, err
			}
		}
	}
	// Distractor views project away the B column. They can never appear
	// in an equivalent rewriting of the chain (the join variable is
	// lost): MiniCon's C2 condition rejects them at MCD-formation time,
	// while the bucket algorithm admits them into interior-subgoal
	// buckets and only discards the combinations at the (expensive)
	// equivalence check — the E5 gap.
	for i := 0; i < joins; i++ {
		name := fmt.Sprintf("VD%d", i)
		src := fmt.Sprintf("%s(A) :- R%d(A, B)", name, i)
		cs.Views = append(cs.Views, cq.MustParse(src))
		if err := sys.DefineView(src, nil, core.CitationSpec{
			Query:  fmt.Sprintf("C%s(D) :- D = 'chain distractor %d'", name, i),
			Fields: []string{format.FieldNote},
		}); err != nil {
			return nil, err
		}
	}
	// Chain query: Q(X0, Xk) :- R0(X0, X1), R1(X1, X2), ...
	var body []string
	for i := 0; i < joins; i++ {
		body = append(body, fmt.Sprintf("R%d(X%d, X%d)", i, i, i+1))
	}
	cs.Query = cq.MustParse(fmt.Sprintf("Q(X0, X%d) :- %s", joins, joinStrings(body)))
	return cs, nil
}

func joinStrings(parts []string) string {
	out := ""
	for i, p := range parts {
		if i > 0 {
			out += ", "
		}
		out += p
	}
	return out
}
