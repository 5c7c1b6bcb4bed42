package citation

// Tests of identity views served as their base relation: the view cache's
// fill returns the frozen base relation itself when the view is one body
// atom listed whole by its head. When the relation's rows do not ascend,
// a branch whose result would show their order is evaluated again over a
// copy in answer order.

import (
	"context"
	"math"
	"math/rand"
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

// copyingGenerator returns a generator over snap whose view cache holds
// Registry.Materialize's copy of every view of reg, as a fill that never
// aliases would leave it: its cites are what the identity views' cites
// must render as.
func copyingGenerator(t *testing.T, reg *Registry, snap *storage.Database) *Generator {
	t.Helper()
	g := NewGenerator(reg, snap)
	for _, v := range reg.Views() {
		name := v.Query.Name
		deps := reg.QueryDeps(name)
		if _, _, err := g.views.get(genKey{snap.Origin(deps), name}, deps, func() (viewInstance, error) {
			rel, err := reg.Materialize(snap, name)
			return viewInstance{rel: rel}, err
		}); err != nil {
			t.Fatal(err)
		}
	}
	return g
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
// holes, with NaN, ±0 and integral floats — the view cache's instance of
// an identity view is the snapshot's base relation itself. It lists
// exactly Registry.Materialize's rows in the same order exactly when its
// rows ascend, and otherwise carries a copy that does. Every cite through
// the identity views renders as the cite through a view cache of
// Materialize's copies (copyingGenerator), and one of rows inserted out
// of order renders its alternatives in answer order.
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
					vi, err := NewGenerator(reg, db).materializeAt(trace.NewContext(context.Background(), tr), snap, view)
					if err != nil {
						t.Fatal(err)
					}
					tr.Finish()
					name := layout + "/" + base
					if vi.rel != snap.Relation(base) {
						t.Fatalf("seed %d, %s: identity view instance is not the base relation", seed, name)
					}
					if wantOrdered := ascendsEverywhere(vi.rel); (vi.sorted == nil) != wantOrdered {
						t.Errorf("seed %d, %s: in answer order %v, want %v (rows %q)", seed, name, vi.sorted == nil, wantOrdered, rowKeys(vi.rel))
					}
					inOrder := vi.rel
					if vi.sorted != nil {
						if inOrder, err = vi.sorted(); err != nil {
							t.Fatal(err)
						}
						unordered++
					} else {
						ordered++
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
						if alias != true || cache != "miss" {
							t.Errorf("seed %d, %s: views span alias=%v cache=%v, want an aliasing miss", seed, name, alias, cache)
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
						want, err := copyingGenerator(t, reg, snap).CiteContext(context.Background(), q, Request{Policy: &pol})
						if err != nil {
							t.Fatal(err)
						}
						if got, want := resultText(t, got), resultText(t, want); got != want {
							t.Fatalf("seed %d, %s, %s, %s: identity views cite\n%s\ncopies cite\n%s", seed, layout, src, pol, got, want)
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
			if got, want := identity.Tuples[0].Selected.String(), "CV1(11) + CV1(12) + CV1(13)"; got != want {
				t.Errorf("%s: expression %s, want %s", pol, got, want)
			}
			if got, want := resultText(t, identity), resultText(t, copied); got != want {
				t.Errorf("%s: identity view cites\n%s\nits copy cites\n%s", pol, got, want)
			}
		}
	})
}
