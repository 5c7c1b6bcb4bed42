package citation

import (
	"context"
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

// multiParamSystem uses a view parameterized by two λ-variables.
func multiParamSystem(t *testing.T) *Generator {
	t.Helper()
	s := schema.New()
	s.MustAdd(schema.MustRelation("Obs", []schema.Attribute{
		{Name: "Site", Kind: value.KindString},
		{Name: "Year", Kind: value.KindInt},
		{Name: "Reading", Kind: value.KindFloat},
	}))
	s.MustAdd(schema.MustRelation("Steward", []schema.Attribute{
		{Name: "Site", Kind: value.KindString},
		{Name: "Year", Kind: value.KindInt},
		{Name: "Name", Kind: value.KindString},
	}))
	db := storage.NewDatabase(s)
	ins := func(rel string, vals ...value.Value) {
		if err := db.Insert(rel, vals...); err != nil {
			t.Fatal(err)
		}
	}
	ins("Obs", value.String("north"), value.Int(2025), value.Float(1.5))
	ins("Obs", value.String("north"), value.Int(2026), value.Float(2.5))
	ins("Obs", value.String("south"), value.Int(2026), value.Float(3.5))
	ins("Steward", value.String("north"), value.Int(2025), value.String("N25"))
	ins("Steward", value.String("north"), value.Int(2026), value.String("N26"))
	ins("Steward", value.String("south"), value.Int(2026), value.String("S26"))
	db.BuildIndexes()

	reg := NewRegistry(s)
	reg.MustAdd(&View{
		Query: cq.MustParse("lambda Site, Year. ObsView(Site, Year, Reading) :- Obs(Site, Year, Reading)"),
		Citations: []*CitationQuery{{
			Query:  cq.MustParse("lambda Site, Year. CObs(Site, Year, Name) :- Steward(Site, Year, Name)"),
			Fields: []string{"", "", format.FieldAuthor},
		}},
	})
	return NewGenerator(reg, db)
}

func TestMultiParameterView(t *testing.T) {
	g := multiParamSystem(t)
	res, err := g.Cite(cq.MustParse("Q(Site, Year, Reading) :- Obs(Site, Year, Reading)"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) != 3 {
		t.Fatalf("tuples %d", len(res.Tuples))
	}
	// Each tuple's atom carries both parameter values, and resolves to
	// the steward of exactly that (site, year).
	for _, tc := range res.Tuples {
		atoms := citeexpr.Atoms(tc.Selected())
		if len(atoms) != 1 {
			t.Fatalf("tuple %s atoms %v", tc.Tuple, atoms)
		}
		if len(atoms[0].Params) != 2 {
			t.Fatalf("atom %s has %d params, want 2", atoms[0], len(atoms[0].Params))
		}
		authors := tc.Record[format.FieldAuthor]
		if len(authors) != 1 {
			t.Fatalf("tuple %s authors %v, want exactly the one steward", tc.Tuple, authors)
		}
	}
	// Aggregate carries all three stewards.
	if got := len(res.Record[format.FieldAuthor]); got != 3 {
		t.Errorf("aggregate authors %d, want 3", got)
	}
}

func TestBucketMethodEndToEnd(t *testing.T) {
	g := paperGenerator(t)
	g.Method = rewrite.MethodBucket
	res, err := g.Cite(cq.MustParse(paperQueryText))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rewritings) != 2 || len(res.Tuples) != 1 {
		t.Fatalf("bucket: rewritings=%d tuples=%d", len(res.Rewritings), len(res.Tuples))
	}
	if res.Tuples[0].Expr().String() != "(CV1(11)·CV3 + CV1(12)·CV3) +R (CV2·CV3)" {
		t.Errorf("bucket expression %s", res.Tuples[0].Expr())
	}
}

func TestCostPrunedDisabledForAllBranches(t *testing.T) {
	g := paperGenerator(t)
	g.CostPruned = true
	p := policy.Default()
	p.AltR = policy.AllBranches
	g.SetPolicy(p)
	res, err := g.Cite(cq.MustParse(paperQueryText))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Pruned {
		t.Error("pruning applied under all-branches policy")
	}
	if res.Stats.RewritingsEvaluated != 2 {
		t.Errorf("evaluated %d rewritings, want 2", res.Stats.RewritingsEvaluated)
	}
	// Under all-branches every atom of every rewriting contributes.
	if got := len(res.Tuples[0].Record[format.FieldAuthor]); got != 3 {
		t.Errorf("all-branches authors %d, want 3", got)
	}
}

func TestStatsAccounting(t *testing.T) {
	g := paperGenerator(t)
	res, err := g.Cite(cq.MustParse(paperQueryText))
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.RewritingsFound != 2 || st.RewritingsEvaluated != 2 {
		t.Errorf("stats %+v", st)
	}
	if st.AtomsResolved == 0 {
		t.Error("no atoms resolved")
	}
	if st.CandidatesExamined < st.RewritingsFound {
		t.Errorf("candidates %d < rewritings %d", st.CandidatesExamined, st.RewritingsFound)
	}
	// Second run hits the atom cache: resolved count stays lower or equal.
	res2, err := g.Cite(cq.MustParse(paperQueryText))
	if err != nil {
		t.Fatal(err)
	}
	if res2.Stats.AtomsResolved > res.Stats.AtomsResolved {
		t.Errorf("cache ineffective: %d then %d", res.Stats.AtomsResolved, res2.Stats.AtomsResolved)
	}
}

// TestEvictedVersionFillNotRetained: no version leaves the caches by
// age, so a late fill at an early version is retained like any other.
// Nine versions change every relation, so no key is shared between them,
// and each is cited; then the view and atom caches are filled at version
// 1 and at version 9, and each repeat lookup hits. The views have
// swapped heads, so V3 is a copy the view cache holds.
func TestEvictedVersionFillNotRetained(t *testing.T) {
	g := copyingPaperGenerator(t)
	atom := citeexpr.NewAtom("V1", value.Int(11))
	const n = 9
	vers := commitHistory(t, g, n, "Family", "Committee", "FamilyIntro")
	q := cq.MustParse(paperQueryText)
	for v := 1; v <= n; v++ {
		if _, err := g.CiteContext(context.Background(), q, Request{DB: vers[v-1]}); err != nil {
			t.Fatal(err)
		}
	}

	// fillTwice fills the view and atom caches at ver, repeats the
	// lookups, and reports which of the repeats the cache served.
	fillTwice := func(ver int) (viewHit, atomHit bool) {
		db := vers[ver-1]
		var st Stats
		resolve := g.resolverAt(db, &st)
		for round := 0; round < 2; round++ {
			misses := lookupMisses("views", func(ctx context.Context) {
				if _, _, err := g.materializeAt(ctx, db, "V3"); err != nil {
					t.Fatal(err)
				}
			})
			if _, err := resolve(atom); err != nil {
				t.Fatal(err)
			}
			viewHit = misses == 0
		}
		return viewHit, st.AtomsResolved <= 1
	}
	for _, v := range []int{1, n} {
		if vh, ah := fillTwice(v); !vh || !ah {
			t.Errorf("fill at version %d not retained: view hit %v, atom hit %v", v, vh, ah)
		}
	}
}

func TestHeadSchemaDerivesKinds(t *testing.T) {
	g := paperGenerator(t)
	v := g.Registry().View("V1")
	rs, err := v.HeadSchema(g.Registry().Schema())
	if err != nil {
		t.Fatal(err)
	}
	if rs.Arity() != 3 {
		t.Fatalf("arity %d", rs.Arity())
	}
	if rs.Attributes[0].Kind != value.KindInt || rs.Attributes[1].Kind != value.KindString {
		t.Errorf("kinds %v", rs.Attributes)
	}
}

func TestParamPositions(t *testing.T) {
	g := multiParamSystem(t)
	v := g.Registry().View("ObsView")
	pos, err := v.ParamPositions()
	if err != nil {
		t.Fatal(err)
	}
	if len(pos) != 2 || pos[0] != 0 || pos[1] != 1 {
		t.Errorf("positions %v", pos)
	}
}

func TestResolveAtomArityMismatch(t *testing.T) {
	g := paperGenerator(t)
	if _, err := g.resolverAt(g.Head(), nil)(citeexpr.NewAtom("V1")); err == nil {
		t.Error("missing parameter accepted")
	}
	if _, err := g.resolverAt(g.Head(), nil)(citeexpr.NewAtom("NoSuchView")); err == nil {
		t.Error("unknown view accepted")
	}
}

func TestTimeParameterRoundTrip(t *testing.T) {
	s := schema.New()
	s.MustAdd(schema.MustRelation("Snap", []schema.Attribute{
		{Name: "At", Kind: value.KindTime},
		{Name: "Val", Kind: value.KindString},
	}))
	db := storage.NewDatabase(s)
	ts := value.Parse("2026-06-12T00:00:00Z")
	if err := db.Insert("Snap", ts, value.String("x")); err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry(s)
	reg.MustAdd(&View{
		Query: cq.MustParse("lambda At. SnapView(At, Val) :- Snap(At, Val)"),
		Citations: []*CitationQuery{{
			Query:  cq.MustParse("lambda At. CSnap(At, Val) :- Snap(At, Val)"),
			Fields: []string{format.FieldDate, ""},
		}},
	})
	g := NewGenerator(reg, db)
	res, err := g.Cite(cq.MustParse("Q(At, Val) :- Snap(At, Val)"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Record[format.FieldDate]) != 1 {
		t.Errorf("date field %v", res.Record[format.FieldDate])
	}
}
