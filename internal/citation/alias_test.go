package citation

// Tests of identity views read as their base relation: a view that is one
// body atom listed whole by its head is the snapshot's frozen base
// relation itself, found without a view-cache lookup. When the relation's
// rows do not ascend, a branch whose result would show their order is
// evaluated again over a copy in answer order from the view cache.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/cq"
	"repro/internal/format"
	"repro/internal/policy"
	"repro/internal/schema"
	"repro/internal/storage"
	"repro/internal/trace"
	"repro/internal/value"
)

// TestIdentityViewShapes: only a view whose one body atom holds distinct
// variables, listed by the head in the same order, is an identity view.
func TestIdentityViewShapes(t *testing.T) {
	for _, c := range []struct {
		src      string
		identity bool
	}{
		{"V(FID, FName, Desc) :- Family(FID, FName, Desc)", true},
		{"lambda FID. V(FID, FName, Desc) :- Family(FID, FName, Desc)", true},
		{"lambda Desc. V(FID, FName, Desc) :- Family(FID, FName, Desc)", true},
		{"V(FID, FName, FName) :- Family(FID, FName, FName)", false},             // repeated variable
		{"V(FID, 'Calcitonin', Desc) :- Family(FID, 'Calcitonin', Desc)", false}, // body constant
		{"V(FName, FID, Desc) :- Family(FID, FName, Desc)", false},               // permuted head
		{"V(FID, FName) :- Family(FID, FName, Desc)", false},                     // projection
		{"V(FID, FName, Desc) :- Family(FID, FName, Desc), FamilyIntro(FID, Text)", false},
	} {
		base, ok := identityBase(cq.MustParse(c.src))
		if ok != c.identity || ok && base != "Family" {
			t.Errorf("%s: identityBase = %q, %v; want identity %v", c.src, base, ok, c.identity)
		}
	}
}

// TestIdentityViewsLeaveNoCacheEntry: an identity view is read straight
// from the snapshot, so citing the serving shapes across 10 versions that
// change Family leaves no view-cache entry, and a lookup at version 1
// runs no fill: it allocates nothing.
func TestIdentityViewsLeaveNoCacheEntry(t *testing.T) {
	const families, versions = 200, 10
	db, vers := familyReleases(t, families, versions)
	g := NewGenerator(servingRegistry(db.Schema()), db)
	for v := 1; v <= versions; v++ {
		for _, shape := range servingShapes {
			q := cq.MustParse(fmt.Sprintf(shape, v))
			if _, err := g.CiteContext(context.Background(), q, Request{DB: vers[v-1]}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if n := len(cacheEntries(g.views)); n != 0 {
		t.Errorf("the view cache holds %d entries after %d versions, want 0", n, versions)
	}
	for _, name := range []string{"FamilyView", "FamilyAll"} {
		allocs := testing.AllocsPerRun(50, func() {
			if _, _, err := g.materializeAt(context.Background(), vers[0], name); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s at version 1: %v allocations per lookup, want 0", name, allocs)
		}
	}
}

// TestUntracedViewLookupAllocatesNothing: an untraced lookup of an
// identity view at the head allocates nothing — the view's name is boxed
// into a span attribute only when there is a span — and a traced lookup
// still names the view in its span.
func TestUntracedViewLookupAllocatesNothing(t *testing.T) {
	db, _ := familyReleases(t, 50, 1)
	g := NewGenerator(servingRegistry(db.Schema()), db)
	head := g.Head()
	for _, name := range []string{"FamilyView", "FamilyAll"} {
		allocs := testing.AllocsPerRun(100, func() {
			if _, _, err := g.materializeAt(context.Background(), head, name); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocations per untraced lookup, want 0", name, allocs)
		}
		tr := trace.New("cite")
		if _, _, err := g.materializeAt(trace.NewContext(context.Background(), tr), head, name); err != nil {
			t.Fatal(err)
		}
		tr.Finish()
		named := 0
		tr.Root().Visit(func(sp *trace.Span) {
			if v, _ := sp.Attr("view"); sp.Name() == "views" && v == name {
				named++
			}
		})
		if named != 1 {
			t.Errorf("%s: %d views spans name the view, want 1", name, named)
		}
	}
}

// aliasSchema holds two relations whose rows exercise Tuple.Compare's
// edge cases: M(K, F, S) ties on K often, so F and S decide, and N(F, K)
// leads with a float column that may hold NaN, 0 and -0.
func aliasSchema() *schema.Schema {
	s := schema.New()
	s.MustAdd(schema.MustRelation("M", []schema.Attribute{
		{Name: "K", Kind: value.KindInt},
		{Name: "F", Kind: value.KindFloat},
		{Name: "S", Kind: value.KindString},
	}))
	s.MustAdd(schema.MustRelation("N", []schema.Attribute{
		{Name: "F", Kind: value.KindFloat},
		{Name: "K", Kind: value.KindInt},
	}))
	return s
}

// aliasRegistry registers one identity view over each relation of
// aliasSchema, one of them λ-parameterized.
func aliasRegistry(s *schema.Schema) *Registry {
	reg := NewRegistry(s)
	for _, v := range []struct {
		view, cite string
		fields     []string
	}{
		{"lambda K. MV(K, F, S) :- M(K, F, S)", "lambda K. CM(K, S) :- M(K, F, S)",
			[]string{format.FieldIdentifier, format.FieldAuthor}},
		{"NV(F, K) :- N(F, K)", "CN(D) :- D = 'N'", []string{format.FieldDatabase}},
	} {
		reg.MustAdd(&View{
			Query:     cq.MustParse(v.view),
			Citations: []*CitationQuery{{Query: cq.MustParse(v.cite), Fields: v.fields}},
		})
	}
	return reg
}

// randomRows draws up to 40 rows for rel. Only when special is set do
// floats include NaN, 0 and -0 (besides the integral lookalikes of the
// int column's values), so plain draws exercise the alias as well.
func randomRows(rng *rand.Rand, rel string, special bool) []storage.Tuple {
	floats := []float64{1, 2, -1.5, 2.5, 4, 7.5}
	if special {
		floats = append(floats, math.NaN(), 0, math.Copysign(0, -1))
	}
	float := func() value.Value { return value.Float(floats[rng.Intn(len(floats))]) }
	n := rng.Intn(41)
	rows := make([]storage.Tuple, 0, n)
	for i := 0; i < n; i++ {
		if rel == "M" {
			rows = append(rows, storage.Tuple{value.Int(int64(rng.Intn(n/2 + 1))), float(),
				value.String(string(rune('a' + rng.Intn(3))))})
		} else {
			rows = append(rows, storage.Tuple{float(), value.Int(int64(rng.Intn(n + 1)))})
		}
	}
	return rows
}

// ascendsEverywhere is the alias condition stated over every pair of
// rows rather than neighbours: no NaN anywhere, and each row strictly
// before every later one under Tuple.Compare.
func ascendsEverywhere(rel *storage.Relation) bool {
	rows := rel.Tuples()
	for i, r := range rows {
		if slices.ContainsFunc(r, isNaN) {
			return false
		}
		for _, later := range rows[i+1:] {
			if r.Compare(later) >= 0 {
				return false
			}
		}
	}
	return true
}

func isNaN(v value.Value) bool { return v.Kind() == value.KindFloat && math.IsNaN(v.FloatVal()) }

// rowKeys renders a relation's live rows in scan order.
func rowKeys(rel *storage.Relation) []string {
	var out []string
	rel.Scan(func(t storage.Tuple) bool {
		out = append(out, t.Key())
		return true
	})
	return out
}

// TestIdentityViewAliasMatchesMaterialize: over random base relations —
// loaded ascending or shuffled, with a row deleted and re-inserted, with
// holes, with NaN, ±0 and integral floats — the instance of an identity
// view is the snapshot's base relation itself, a view-cache hit that
// leaves no entry. It is in answer order exactly when its rows ascend,
// and the view cache's copy of it lists Registry.Materialize's rows in
// their order. Every cite through the identity views equals the tree path
// over Materialize's copies (treeCite): its expressions, records and
// atoms resolved. One of rows inserted out of order renders its
// alternatives in answer order.
func TestIdentityViewAliasMatchesMaterialize(t *testing.T) {
	t.Run("random", func(t *testing.T) {
		s := aliasSchema()
		reg := aliasRegistry(s)
		// The queries cite both relations through their views: answers
		// with one derivation each, answers with several, answers that
		// may tie under Tuple.Compare (0 and -0) or hold NaN, and a join
		// of both views.
		queries := []string{
			"Q(K, F, S) :- M(K, F, S)",
			"Q(S) :- M(K, F, S)",
			"Q(F) :- M(K, F, S)",
			"Q(K) :- N(F, K)",
			"Q(F, K) :- N(F, K)",
			"Q(S, K) :- M(K, F, S), N(F, K)",
		}
		ordered, unordered, resorted := 0, 0, 0
		for seed := int64(1); seed <= 60; seed++ {
			rng := rand.New(rand.NewSource(seed))
			for _, layout := range []string{"ascending", "shuffled", "reinsert", "holes", "nan-interleaved"} {
				db := storage.NewDatabase(s)
				for _, base := range []string{"M", "N"} {
					rows := randomRows(rng, base, seed%2 == 0)
					switch layout {
					case "shuffled":
						rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
					case "nan-interleaved":
						// Neighbours differ only after a NaN, so each pair
						// ascends on K, while rows two apart descend on F.
						if base != "N" {
							continue
						}
						rows = rows[:0]
						for i := 0; i < 40; i++ {
							f := math.NaN()
							if i%2 == 0 {
								f = float64(40 - i)
							}
							rows = append(rows, storage.Tuple{value.Float(f), value.Int(int64(i))})
						}
					default:
						slices.SortFunc(rows, storage.Tuple.Compare)
					}
					rel := db.Relation(base)
					for _, r := range rows {
						if _, err := rel.Insert(r); err != nil {
							t.Fatal(err)
						}
					}
					if live := rel.Tuples(); len(live) > 0 {
						switch layout {
						case "reinsert":
							r := live[rng.Intn(len(live))]
							rel.Delete(r)
							if _, err := rel.Insert(r); err != nil {
								t.Fatal(err)
							}
						case "holes":
							for range 1 + len(live)/4 {
								rel.Delete(live[rng.Intn(len(live))])
							}
						}
					}
				}
				snap := db.Snapshot()
				for _, base := range []string{"M", "N"} {
					view := base + "V"
					tr := trace.New("cite")
					g := NewGenerator(reg, db)
					rel, inAnswerOrder, err := g.materializeAt(trace.NewContext(context.Background(), tr), snap, view)
					if err != nil {
						t.Fatal(err)
					}
					tr.Finish()
					name := layout + "/" + base
					if rel != snap.Relation(base) {
						t.Fatalf("seed %d, %s: identity view instance is not the base relation", seed, name)
					}
					if n := len(cacheEntries(g.views)); n != 0 {
						t.Errorf("seed %d, %s: the view cache holds %d entries after an identity view's lookup, want 0", seed, name, n)
					}
					if want := ascendsEverywhere(rel); inAnswerOrder != want {
						t.Errorf("seed %d, %s: in answer order %v, want %v (rows %q)", seed, name, inAnswerOrder, want, rowKeys(rel))
					}
					inOrder := rel
					if inAnswerOrder {
						ordered++
					} else {
						if inOrder, _, err = g.viewCopy(snap, view); err != nil {
							t.Fatal(err)
						}
						unordered++
					}
					want, err := reg.Materialize(snap, view)
					if err != nil {
						t.Fatal(err)
					}
					if got, want := rowKeys(inOrder), rowKeys(want); !slices.Equal(got, want) {
						t.Fatalf("seed %d, %s: view cache rows in answer order\n%q\nMaterialize rows\n%q", seed, name, got, want)
					}
					tr.Root().Visit(func(sp *trace.Span) {
						if sp.Name() != "views" {
							return
						}
						alias, _ := sp.Attr("alias")
						cache, _ := sp.Attr("cache")
						if alias != true || cache != "hit" {
							t.Errorf("seed %d, %s: views span alias=%v cache=%v, want an aliasing hit", seed, name, alias, cache)
						}
					})
				}
				first := policy.Default()
				first.Alt = policy.First
				for _, src := range queries {
					q := cq.MustParse(src)
					for _, pol := range []policy.Policy{policy.Default(), first} {
						tr := trace.New("cite")
						got, err := NewGenerator(reg, snap).CiteContext(trace.NewContext(context.Background(), tr), q, Request{Policy: &pol})
						if err != nil {
							t.Fatal(err)
						}
						tr.Finish()
						want, _ := treeCite(t, reg, snap, q, pol, false)
						if got := tableCitation(got); !reflect.DeepEqual(got, want) {
							t.Fatalf("seed %d, %s, %s, %s: identity views cite\n%+v\ncopies cite\n%+v", seed, layout, src, pol, got, want)
						}
						tr.Root().Visit(func(sp *trace.Span) {
							if _, ok := sp.Attr("resorted"); ok && sp.Name() == "branch" {
								resorted++
							}
						})
					}
				}
			}
		}
		if ordered < 50 || unordered < 50 || resorted < 50 {
			t.Errorf("%d instances in answer order, %d out of it, %d branches evaluated again; want at least 50 each", ordered, unordered, resorted)
		}
	})

	t.Run("fixed-order", func(t *testing.T) {
		s := paperSchema(t)
		db := storage.NewDatabase(s)
		for _, fid := range []int64{12, 11, 13} {
			db.Relation("Family").MustInsert(value.Int(fid), value.String("Calcitonin"), value.String("C"))
			db.Relation("Committee").MustInsert(value.Int(fid), value.String("Member"))
		}
		cite := func(view string, pol policy.Policy) *Result {
			reg := NewRegistry(s)
			reg.MustAdd(&View{
				Query: cq.MustParse(view),
				Citations: []*CitationQuery{{
					Query:  cq.MustParse("lambda FID. CV1(FID, PName) :- Committee(FID, PName)"),
					Fields: []string{format.FieldIdentifier, format.FieldAuthor},
				}},
			})
			res, err := NewGenerator(reg, db).CiteContext(context.Background(),
				cq.MustParse("Q(FName) :- Family(FID, FName, Desc)"), Request{Policy: &pol})
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		first := policy.Default()
		first.Alt = policy.First
		for _, pol := range []policy.Policy{policy.Default(), first} {
			identity := cite("lambda FID. V1(FID, FName, Desc) :- Family(FID, FName, Desc)", pol)
			copied := cite("lambda FID. V1(FName, FID, Desc) :- Family(FID, FName, Desc)", pol)
			if len(identity.Tuples) != 1 {
				t.Fatalf("%s: %d answer tuples, want 1", pol, len(identity.Tuples))
			}
			if got, want := identity.Tuples[0].Selected().String(), "CV1(11) + CV1(12) + CV1(13)"; got != want {
				t.Errorf("%s: expression %s, want %s", pol, got, want)
			}
			if got, want := resultText(t, identity), resultText(t, copied); got != want {
				t.Errorf("%s: identity view cites\n%s\nits copy cites\n%s", pol, got, want)
			}
		}
	})
}
