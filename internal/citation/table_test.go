package citation

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/citeexpr"
	"repro/internal/cq"
	"repro/internal/eval"
	"repro/internal/format"
	"repro/internal/policy"
	"repro/internal/schema"
	"repro/internal/storage"
	"repro/internal/trace"
	"repro/internal/value"
)

// resolverAt is the tree path's resolver: it resolves a citeexpr atom
// over the snapshot db through the generator's atom cache, under the
// key the branch tables give the same atom, counting its resolutions in
// stats when non-nil.
func (g *Generator) resolverAt(db *storage.Database, stats *Stats) policy.Resolver {
	return func(a citeexpr.Atom) (format.Record, error) {
		return g.resolve(db, a.View, a.Params, string(appendAtomKey(nil, a.View, a.Params)), stats)
	}
}

// annotator is the tree path's base annotation: a tuple of one of the
// views is annotated with the citation atom CV(params) read at the
// view's parameter positions, and a base-relation tuple (of a partial
// rewriting) with the neutral citation.
func annotator(positions map[string][]int) func(pred string, t storage.Tuple) citeexpr.Expr {
	return func(pred string, t storage.Tuple) citeexpr.Expr {
		pos, ok := positions[pred]
		if !ok {
			return citeexpr.Joint{}
		}
		params := make([]value.Value, len(pos))
		for i, p := range pos {
			params[i] = t[p]
		}
		return citeexpr.NewAtom(pred, params...)
	}
}

// treeCitation is a cite's citation as strings, for comparison: the
// rendered and canonical expressions, the records and the atoms resolved.
type treeCitation struct {
	expr, canon string
	record      format.Record
	tuples      []treeTuple
	resolved    int
}

type treeTuple struct {
	key                        string
	expr, canon, sel, selCanon string
	record                     format.Record
}

// tableCitation renders the engine's result as a treeCitation, building
// every expression from the branch tables.
func tableCitation(res *Result) treeCitation {
	out := treeCitation{expr: res.Expr().String(), canon: res.Expr().Canonical(), record: res.Record, resolved: res.Stats.AtomsResolved}
	for _, tc := range res.Tuples {
		out.tuples = append(out.tuples, treeTuple{tc.Tuple.Key(), tc.Expr().String(), tc.Expr().Canonical(),
			tc.Selected().String(), tc.Selected().Canonical(), tc.Record})
	}
	return out
}

// treeCite is the reference the branch tables are checked against: the
// tree path the generator ran before them, over Registry.Materialize's
// copies of the views. Each rewriting's walk annotates its bindings with
// citeexpr.Semiring. The answer is the union of the branches' tuples,
// sorted; +R chooses for the whole answer the branch of fewest (or most)
// distinct atoms, or SelectBranch chooses per tuple when that branch
// lacks the tuple; policy.Eval resolves the selected tree and EvalAgg
// folds the tuples' records. fallbacks counts the tuples the chosen
// branch lacks.
func treeCite(t *testing.T, reg *Registry, snap *storage.Database, q *cq.Query, pol policy.Policy, partial bool) (ref treeCitation, fallbacks int) {
	t.Helper()
	// The walks read the base relations and the views' copies.
	inst := make(eval.Relations)
	for _, name := range snap.Schema().Names() {
		inst[name] = snap.Relation(name)
	}
	for _, v := range reg.Views() {
		rel, err := reg.Materialize(snap, v.Query.Name)
		if err != nil {
			t.Fatal(err)
		}
		inst[v.Query.Name] = rel.Snapshot()
	}
	g := NewGenerator(reg, snap)
	g.AllowPartial = partial
	rewritings, prep, _, err := g.rewriteStage(q, g.Method)
	if err != nil {
		t.Fatal(err)
	}
	var branches [][]eval.Annotated[citeexpr.Expr]
	var union eval.TupleIndex
	for _, rw := range rewritings {
		bq := rw.AsQuery("rw")
		annotated, err := eval.EvalAnnotated(inst, bq, citeexpr.Semiring{}, annotator(prep.params))
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range annotated {
			union.AddOwned(a.Tuple)
		}
		branches = append(branches, annotated)
	}
	tuples := append([]storage.Tuple(nil), union.Tuples()...)
	slices.SortFunc(tuples, storage.Tuple.Compare)
	find := func(b []eval.Annotated[citeexpr.Expr], tup storage.Tuple) (citeexpr.Expr, bool) {
		i := slices.IndexFunc(b, func(a eval.Annotated[citeexpr.Expr]) bool { return a.Tuple.Key() == tup.Key() })
		if i < 0 {
			return nil, false
		}
		return b[i].Annotation, true
	}
	chosen := -1
	if pol.AltR != policy.AllBranches && len(branches) > 1 {
		sizes := make([]int, len(branches))
		for i, b := range branches {
			atoms := map[string]bool{}
			for _, a := range b {
				citeexpr.VisitAtoms(a.Annotation, func(at citeexpr.Atom) { atoms[at.Key()] = true })
			}
			sizes[i] = len(atoms)
		}
		chosen = 0
		for i := 1; i < len(sizes); i++ {
			if pol.AltR == policy.MaxCoverage && sizes[i] > sizes[chosen] || pol.AltR != policy.MaxCoverage && sizes[i] < sizes[chosen] {
				chosen = i
			}
		}
	}
	var stats Stats
	resolve := g.resolverAt(snap, &stats)
	var aggChildren []citeexpr.Expr
	var records []format.Record
	for _, tup := range tuples {
		var children []citeexpr.Expr
		for _, b := range branches {
			if e, ok := find(b, tup); ok {
				children = append(children, e)
			}
		}
		full := citeexpr.AltR{Children: children}
		selected := pol.SelectBranch(children)
		if chosen >= 0 {
			if e, ok := find(branches[chosen], tup); ok {
				selected = e
			} else {
				fallbacks++
			}
		}
		rec, err := pol.Eval(selected, resolve)
		if err != nil {
			t.Fatal(err)
		}
		ref.tuples = append(ref.tuples, treeTuple{tup.Key(), full.String(), full.Canonical(), selected.String(), selected.Canonical(), rec})
		aggChildren = append(aggChildren, selected)
		records = append(records, rec)
	}
	agg := citeexpr.Agg{Children: aggChildren}
	ref.expr, ref.canon, ref.record, ref.resolved = agg.String(), agg.Canonical(), pol.EvalAgg(records), stats.AtomsResolved
	return ref, fallbacks
}

// tableSchema holds a relation per parameter kind, and W, which no view
// covers, so a query over it has partial rewritings only.
func tableSchema() *schema.Schema {
	s := schema.New()
	for _, r := range []struct {
		name  string
		attrs []schema.Attribute
	}{
		{"R", []schema.Attribute{{Name: "K", Kind: value.KindInt}, {Name: "F", Kind: value.KindFloat}, {Name: "S", Kind: value.KindString}}},
		{"T", []schema.Attribute{{Name: "F", Kind: value.KindFloat}, {Name: "K", Kind: value.KindInt}}},
		{"U", []schema.Attribute{{Name: "S", Kind: value.KindString}, {Name: "K", Kind: value.KindInt}}},
		{"W", []schema.Attribute{{Name: "K", Kind: value.KindInt}, {Name: "Y", Kind: value.KindString}}},
	} {
		s.MustAdd(schema.MustRelation(r.name, r.attrs))
	}
	return s
}

// tableRegistry registers identity views parameterized by an Int (RV), a
// Float (TF) and a String (US), an unparameterized identity view (TV)
// beside TF, and a Float-parameterized copy (RF) beside RV.
func tableRegistry(s *schema.Schema) *Registry {
	reg := NewRegistry(s)
	for _, v := range [][3]string{
		{"lambda K. RV(K, F, S) :- R(K, F, S)", "lambda K. CR(K, S) :- R(K, F, S)", "identifier author"},
		{"lambda F. RF(F, K) :- R(K, F, S)", "lambda F. CRF(F, S) :- R(K, F, S)", "identifier title"},
		{"TV(F, K) :- T(F, K)", "CT(D) :- D = 'T'", "database"},
		{"lambda F. TF(F, K) :- T(F, K)", "lambda F. CTF(F, K) :- T(F, K)", "identifier note"},
		{"lambda S. US(S, K) :- U(S, K)", "lambda S. CU(S, K) :- U(S, K)", "identifier author"},
	} {
		reg.MustAdd(&View{
			Query:     cq.MustParse(v[0]),
			Citations: []*CitationQuery{{Query: cq.MustParse(v[1]), Fields: strings.Fields(v[2])}},
			Static:    format.NewRecord(format.FieldDatabase, "DB"),
		})
	}
	return reg
}

// TestTablesMatchTrees is the differential test of the branch tables:
// over random relations, every cite of a query set under each of the
// nine {Union, Join, First} × {MinSize, AllBranches, MaxCoverage}
// policies must equal the tree path (treeCite) — the rendered and
// canonical expressions of the result and of each tuple's Expr and
// Selected, every record, and the atoms resolved. The relations hold NaN
// of two payloads, ±0 and 1 as an Int, a Float and a String, inserted
// in random order, so the identity views' rows mostly do not ascend. The
// queries repeat an atom within a binding (a self-join on RV's key),
// derive answers many times with distinct and with equal monomials,
// derive one answer by symmetric bindings whose monomials hold the same
// atoms in another order, and take partial rewritings; joins on ±0 give
// rewritings whose answers differ, so the chosen branch can lack a
// tuple.
func TestTablesMatchTrees(t *testing.T) {
	s := tableSchema()
	reg := tableRegistry(s)
	floats := []float64{0, math.Copysign(0, -1), 1, 1.5, math.NaN(), math.Float64frombits(0x7ff8000000000001)}
	strs := []string{"1", "a", "b,c", "it's"}
	queries := []string{
		"Q(F) :- R(K, F, S)",
		"Q(K, F) :- R(K, F, S)",
		"Q(S) :- R(K, F, S)",
		"Q(F, G) :- R(K, F, S), R(K, G, S2)",
		"Q(S) :- R(K1, F1, S), R(K2, F2, S), T(F1, K2), T(F2, K1)",
		"Q(K) :- T(F, K)",
		"Q(F) :- T(F, K)",
		"Q(F, K) :- R(K, F, S), T(F, K)",
		"Q(F) :- R(K, F, S), T(F, K2)",
		"Q(S) :- U(S, K), R(K, F, S2)",
		"Q(K) :- U(S, K), T(F, K)",
		"Q(F) :- R(1, F, S)",
		"Q(K) :- T(1.0, K)",
		"Q(K) :- U('1', K)",
		"Q(Y) :- R(K, F, S), W(K, Y)",
		"Q(K, Y) :- T(F, K), W(K, Y)",
	}
	var pols []policy.Policy
	for _, c := range []policy.Combine{policy.Union, policy.Join, policy.First} {
		for _, sel := range []policy.Select{policy.MinSize, policy.AllBranches, policy.MaxCoverage} {
			pols = append(pols, policy.Policy{Joint: c, Alt: c, AltR: sel, Agg: c})
		}
	}
	var cites, fallbacks, plural, repeated, nan, negZero, resorted int
	for seed := int64(1); seed <= 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db := storage.NewDatabase(s)
		float := func() value.Value { return value.Float(floats[rng.Intn(len(floats))]) }
		for range 4 + rng.Intn(12) {
			k := value.Int(int64(rng.Intn(4)))
			db.Relation("R").MustInsert(k, float(), value.String(strs[rng.Intn(len(strs))]))
			db.Relation("T").MustInsert(float(), value.Int(int64(rng.Intn(4))))
			db.Relation("U").MustInsert(value.String(strs[rng.Intn(len(strs))]), k)
			db.Relation("W").MustInsert(k, value.String(strs[rng.Intn(len(strs))]))
		}
		snap := db.Snapshot()
		for _, src := range queries {
			q := cq.MustParse(src)
			for _, pol := range pols {
				partial := strings.Contains(src, "W(")
				g := NewGenerator(reg, snap)
				g.AllowPartial = partial
				tr := trace.New("cite")
				res, err := g.CiteContext(trace.NewContext(context.Background(), tr), q, Request{Policy: &pol})
				if err != nil {
					t.Fatalf("seed %d, %s, %s: %v", seed, src, pol, err)
				}
				tr.Finish()
				want, fb := treeCite(t, reg, snap, q, pol, partial)
				if got := tableCitation(res); !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d, %s, %s:\ntables %+v\ntrees  %+v", seed, src, pol, got, want)
				}
				cites, fallbacks = cites+1, fallbacks+fb
				tr.Root().Visit(func(sp *trace.Span) {
					if _, ok := sp.Attr("resorted"); ok {
						resorted++
					}
				})
				for _, tc := range res.Tuples {
					e := tc.Expr().String()
					nan += strings.Count(e, "NaN")
					negZero += strings.Count(e, "(-0")
					for _, b := range tc.branches {
						if b.has(tc.Tuple) {
							run := b.run(tc.Tuple)
							plural += min(1, len(run)/b.width-1)
							if b.width > 1 && slices.Contains(run, policy.NoAtom) {
								repeated++
							}
						}
					}
				}
			}
		}
	}
	t.Logf("%d cites: %d fallback tuples, %d plural runs, %d runs with a repeated atom, %d NaN and %d -0 parameters, %d branches evaluated again",
		cites, fallbacks, plural, repeated, nan, negZero, resorted)
	if fallbacks < 10 || plural < 100 || repeated < 100 || nan < 100 || negZero < 100 || resorted < 100 {
		t.Errorf("the cites reach too few of the cases the test is for")
	}
}
