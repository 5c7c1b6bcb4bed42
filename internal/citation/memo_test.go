package citation

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"sync"
	"testing"

	"repro/internal/cq"
	"repro/internal/gtopdb"
	"repro/internal/rewrite"
	"repro/internal/schema"
	"repro/internal/trace"
	"repro/internal/value"
)

// memoViewSet is one view set of the memo oracle: a registry and the
// base relations its random queries range over.
type memoViewSet struct {
	name string
	reg  *Registry
	rels []*schema.Relation
}

// gtopdbMemoViews is the GtoPdb serving view set (no view constants).
func gtopdbMemoViews(t *testing.T) memoViewSet {
	t.Helper()
	s := gtopdb.Schema()
	reg := NewRegistry(s)
	for _, src := range []string{
		"lambda FID. FamilyView(FID, FName, Desc) :- Family(FID, FName, Desc)",
		"FamilyAll(FID, FName, Desc) :- Family(FID, FName, Desc)",
		"IntroView(FID, Text) :- FamilyIntro(FID, Text)",
		"lambda TID. TargetView(TID, FID, TName, Type) :- Target(TID, FID, TName, Type)",
		"lambda FID. CommitteeView(FID, PName) :- Committee(FID, PName)",
	} {
		reg.MustAdd(&View{Query: cq.MustParse(src)})
	}
	return memoViewSet{"gtopdb", reg, relationsOf(s, "Family", "FamilyIntro", "Target", "Committee", "Contributor")}
}

// eagleIMemoViews is the eagle-i view set: one class view per resource
// class (Resource(RID, 'CellLine', Label) and so on), the unconstrained
// views, and views pinning an Int(1), a String("1") and a Float(2.5), so
// query constants meet view constants of every kind and their
// lookalikes.
func eagleIMemoViews(t *testing.T) memoViewSet {
	t.Helper()
	s := gtopdb.EagleISchema()
	reg := NewRegistry(s)
	for _, class := range []string{"CellLine", "Software", "Antibody"} {
		reg.MustAdd(&View{Query: cq.MustParse(fmt.Sprintf(
			"lambda RID. %sView(RID, Label) :- Resource(RID, '%s', Label)", class, class))})
	}
	for _, src := range []string{
		"ResourceView(RID, Class, Label) :- Resource(RID, Class, Label)",
		"ProviderView(RID, LabName) :- Provider(RID, LabName)",
		"InstView(LabName, InstName) :- Institution(LabName, InstName)",
		"FirstResource(Class, Label) :- Resource(1, Class, Label)",
		"QuotedOne(RID, Class) :- Resource(RID, Class, '1')",
		"HalfLab(RID) :- Provider(RID, 2.5)",
		"Swap(A, B) :- Provider(A, B), Provider(B, A)",
	} {
		reg.MustAdd(&View{Query: cq.MustParse(src)})
	}
	return memoViewSet{"eagle-i", reg, relationsOf(s, "Resource", "Provider", "Institution")}
}

func relationsOf(s *schema.Schema, names ...string) []*schema.Relation {
	out := make([]*schema.Relation, len(names))
	for i, n := range names {
		out[i] = s.Relation(n)
	}
	return out
}

// memoConstPool is what random queries draw constants from: every view
// constant of the eagle-i set (hits), misses of every kind, the
// cross-kind lookalikes Int(1), Float(1) and String("1"), and the floats
// == cannot tell apart from another value or from itself.
var memoConstPool = []value.Value{
	value.String("CellLine"), value.String("Software"), value.String("Antibody"),
	value.Int(1), value.String("1"), value.Float(2.5),
	value.Float(1), value.Int(2), value.Int(100000), value.Float(100000),
	value.String("Protocol"), value.String("GPCR"), value.String("it's"),
	value.Float(0), value.Float(math.Copysign(0, -1)), value.Float(math.NaN()),
}

// memoShape is a random query shape: a body over the view set's
// relations whose terms are variables or constant slots (slot k is
// written as a negative var index -k-1), and a head of body variables.
type memoShape struct {
	atoms []struct {
		pred  string
		terms []int
	}
	head []int
}

var memoVarNames = []string{"X", "Y", "Z", "W", "V"}

func randomMemoShape(rng *rand.Rand, rels []*schema.Relation) memoShape {
	var sh memoShape
	used := map[int]bool{}
	for range 1 + rng.IntN(3) {
		r := rels[rng.IntN(len(rels))]
		a := struct {
			pred  string
			terms []int
		}{pred: r.Name}
		for range r.Arity() {
			if rng.IntN(10) < 3 {
				a.terms = append(a.terms, -1-rng.IntN(3)) // one of three slots
				continue
			}
			v := rng.IntN(len(memoVarNames))
			used[v] = true
			a.terms = append(a.terms, v)
		}
		sh.atoms = append(sh.atoms, a)
	}
	for v := range memoVarNames {
		if used[v] && rng.IntN(2) == 0 {
			sh.head = append(sh.head, v)
		}
	}
	if rng.IntN(8) == 0 {
		sh.head = append(sh.head, -1) // a constant in the head
	}
	return sh
}

// instantiate fills the shape's slots with constants drawn from the pool.
func (sh memoShape) instantiate(rng *rand.Rand) *cq.Query {
	slots := make([]value.Value, 3)
	for i := range slots {
		slots[i] = memoConstPool[rng.IntN(len(memoConstPool))]
	}
	term := func(x int) cq.Term {
		if x < 0 {
			return cq.Const(slots[-1-x])
		}
		return cq.Var(memoVarNames[x])
	}
	q := &cq.Query{Name: "Q"}
	for _, h := range sh.head {
		q.Head = append(q.Head, term(h))
	}
	for _, a := range sh.atoms {
		at := cq.Atom{Predicate: a.pred}
		for _, x := range a.terms {
			at.Terms = append(at.Terms, term(x))
		}
		q.Body = append(q.Body, at)
	}
	return q
}

// directRewriting is the rewriting stage without the memo: rewrite.Rewrite
// and CiteContext's partial fallback, as the generator ran them before
// the memo.
func directRewriting(t *testing.T, g *Generator, q *cq.Query, method rewrite.Method) ([]*rewrite.Rewriting, int, int) {
	t.Helper()
	views := g.reg.ViewQueries()
	opts := rewrite.Options{Method: method}
	res, err := rewrite.Rewrite(q, views, opts)
	if err != nil {
		t.Fatal(err)
	}
	rws, cand, mcds := res.Rewritings, res.CandidatesExamined, res.MCDCount
	if len(rws) == 0 && g.AllowPartial {
		opts.AllowPartial = true
		pres, err := rewrite.Rewrite(q, views, opts)
		if err != nil {
			t.Fatal(err)
		}
		cand += pres.CandidatesExamined
		mcds += pres.MCDCount
		for _, rw := range pres.Rewritings {
			if len(rw.ViewAtoms) > 0 {
				rws = append(rws, rw)
			}
		}
	}
	return rws, cand, mcds
}

func rewritingStrings(rws []*rewrite.Rewriting) []string {
	out := make([]string, len(rws))
	for i, rw := range rws {
		out[i] = rw.String()
	}
	return out
}

// TestRewriteMemoMatchesDirectRewrite is the memo's soundness oracle:
// random query shapes over two view sets, each instantiated with
// constants that hit and miss view constants, repeat within a query and
// include the cross-kind lookalikes, go through the generator's
// rewriting stage, and every result — memo hit or miss — must equal a
// direct rewrite.Rewrite: the same rewritings as strings in the same
// order, the same candidates examined and MCDs formed, and the same
// read-set and parameter positions.
func TestRewriteMemoMatchesDirectRewrite(t *testing.T) {
	rng := rand.New(rand.NewPCG(17, 2017))
	var hits, substituted int
	for _, set := range []memoViewSet{gtopdbMemoViews(t), eagleIMemoViews(t)} {
		for _, method := range []rewrite.Method{rewrite.MethodMiniCon, rewrite.MethodBucket} {
			for _, partial := range []bool{false, true} {
				g := NewGenerator(set.reg, nil)
				g.AllowPartial = partial
				for range 30 {
					sh := randomMemoShape(rng, set.rels)
					for range 8 {
						q := sh.instantiate(rng)
						if q.Validate() != nil {
							continue
						}
						got, e, hit, err := g.rewriteStage(q, method)
						if err != nil {
							t.Fatalf("%s %v partial=%v: %s: %v", set.name, method, partial, q, err)
						}
						want, cand, mcds := directRewriting(t, g, q, method)
						where := fmt.Sprintf("%s %v partial=%v hit=%v: %s", set.name, method, partial, hit, q)
						if gs, ws := rewritingStrings(got), rewritingStrings(want); !slices.Equal(gs, ws) {
							t.Fatalf("%s:\nmemo   %q\ndirect %q", where, gs, ws)
						}
						if e.candidates != cand || e.mcds != mcds {
							t.Fatalf("%s: memo examined %d candidates / %d MCDs, direct %d / %d",
								where, e.candidates, e.mcds, cand, mcds)
						}
						if reads := g.readSet(want); !slices.Equal(e.reads, reads) {
							t.Fatalf("%s: memo reads %v, direct %v", where, e.reads, reads)
						}
						params, err := g.paramPositions(want)
						if err != nil {
							t.Fatal(err)
						}
						for name, pos := range params {
							if !slices.Equal(e.params[name], pos) {
								t.Fatalf("%s: memo params of %s %v, direct %v", where, name, e.params[name], pos)
							}
						}
						if hit {
							hits++
							if len(e.from) > 0 && !slices.Equal(e.from, constantsOf(q)) {
								substituted++
							}
						}
					}
				}
			}
		}
	}
	// The oracle is only as strong as the hits it checks.
	if hits < 200 || substituted < 100 {
		t.Fatalf("only %d memo hits, %d with substituted constants", hits, substituted)
	}
}

// TestRewriteMemoConstantOrderAndLookalikes: over the symmetric view
// Swap(A, B) :- Provider(A, B), Provider(B, A), the query
// Q() :- Provider(a, b), Provider(b, a) has the rewritings Swap(a, b)
// and Swap(b, a), whose order is the order of a and b; and when a and b
// render alike (Int(1) and Float(1)) the rewriter's signatures merge
// the two, so a fresh rewrite returns one. Each binding of the shape —
// in order, reversed, lookalikes, repeated — must equal a direct
// rewrite, including after a hit on a binding of the other order.
func TestRewriteMemoConstantOrderAndLookalikes(t *testing.T) {
	g := NewGenerator(eagleIMemoViews(t).reg, nil)
	var hits int
	for _, b := range [][2]value.Value{
		{value.Int(5), value.Int(6)},
		{value.Int(6), value.Int(5)},
		{value.Int(1), value.Float(1)},
		{value.String("x"), value.String("y")},
		{value.String("y"), value.String("x")},
		{value.Float(1), value.Int(1)},
		{value.Int(7), value.Int(7)},
		{value.Int(9), value.Int(8)},
		// Text order disagrees with numeric order: "10" < "9", "-1" < "-10".
		{value.Int(9), value.Int(10)},
		{value.Int(10), value.Int(9)},
		{value.Int(-1), value.Int(-10)},
		// A doubled quote renders '' inside the literal: 'it''s' < 'its'.
		{value.String("it's"), value.String("its")},
		{value.String("its"), value.String("it's")},
	} {
		q := &cq.Query{Name: "Q", Body: []cq.Atom{
			cq.NewAtom("Provider", cq.Const(b[0]), cq.Const(b[1])),
			cq.NewAtom("Provider", cq.Const(b[1]), cq.Const(b[0])),
		}}
		got, e, hit, err := g.rewriteStage(q, rewrite.MethodMiniCon)
		if err != nil {
			t.Fatal(err)
		}
		if hit {
			hits++
		}
		want, cand, _ := directRewriting(t, g, q, rewrite.MethodMiniCon)
		if gs, ws := rewritingStrings(got), rewritingStrings(want); !slices.Equal(gs, ws) || e.candidates != cand {
			t.Fatalf("%s (hit %v):\nmemo   %q, %d candidates\ndirect %q, %d candidates", q, hit, gs, e.candidates, ws, cand)
		}
	}
	if hits < 4 {
		t.Fatalf("only %d memo hits", hits)
	}
}

// TestRewriteSpanReportsMemo: the rewrite span says whether the memo
// answered, and a hit reports the candidates and rewritings of the
// search its entry ran, as a miss does.
func TestRewriteSpanReportsMemo(t *testing.T) {
	g := paperGenerator(t)
	var want [2]int64
	for i, fid := range []int{11, 12} {
		tr := trace.New("cite")
		ctx := trace.NewContext(context.Background(), tr)
		if _, err := g.CiteContext(ctx, cq.MustParse(fmt.Sprintf("Q(FName) :- Family(%d, FName, Desc)", fid)), Request{}); err != nil {
			t.Fatal(err)
		}
		tr.Finish()
		var rw *trace.Span
		tr.Root().Visit(func(s *trace.Span) {
			if s.Name() == "rewrite" {
				rw = s
			}
		})
		memo, _ := rw.Attr("memo")
		if wantMemo := []string{"miss", "hit"}[i]; memo != wantMemo {
			t.Errorf("cite %d: memo=%v, want %s", i, memo, wantMemo)
		}
		got := [2]int64{rw.AttrInt("candidates_examined"), rw.AttrInt("rewritings_found")}
		if got[0] == 0 || got[1] == 0 || (i == 1 && got != want) {
			t.Errorf("cite %d: candidates, rewritings = %v, want %v and nonzero", i, got, want)
		}
		want = got
	}
}

// constantsOf lists q's distinct constants in first-occurrence order.
func constantsOf(q *cq.Query) []value.Value {
	var out []value.Value
	add := func(t cq.Term) {
		if !t.IsVar && !slices.ContainsFunc(out, func(c value.Value) bool { return identical(c, t.Const) }) {
			out = append(out, t.Const)
		}
	}
	for _, t := range q.Head {
		add(t)
	}
	for _, a := range q.Body {
		for _, t := range a.Terms {
			add(t)
		}
	}
	return out
}

// TestShapeKey pins which queries share a memo entry: constants that
// only differ in value do; a different equality pattern, a constant that
// renders like a view constant, lookalikes beside each other, NaNs and
// zeros, a different view-set generation or different options do not.
func TestShapeKey(t *testing.T) {
	set := eagleIMemoViews(t)
	vs := set.reg.viewSet()
	key := func(src string) string {
		k, _ := shapeKey(nil, cq.MustParse(src), vs, rewrite.MethodMiniCon, false, nil)
		return string(k)
	}
	same := [][2]string{
		{"Q(L) :- Resource(7, C, L)", "Q(L) :- Resource(8, C, L)"},
		{"Q(L) :- Resource(7, 'a', L)", "Q(L) :- Resource(8, 'b', L)"},
		{"Q(L) :- Resource(7, C, L), Provider(7, L)", "Q(L) :- Resource(9, C, L), Provider(9, L)"},
		{"Q(L) :- Resource(R, 'CellLine', L)", "Q(L) :- Resource(R, 'CellLine', L)"},
		{"Q(L) :- Resource(R, 'Widget', L)", "Q(L) :- Resource(R, 'Gadget', L)"},
		{"P(L) :- Resource(7, C, L)", "Q(L) :- Resource(8, C, L)"},
	}
	for _, p := range same {
		if key(p[0]) != key(p[1]) {
			t.Errorf("%s and %s should share a key", p[0], p[1])
		}
	}
	differ := [][2]string{
		{"Q(L) :- Resource(7, C, L), Provider(7, L)", "Q(L) :- Resource(7, C, L), Provider(8, L)"},
		{"Q(L) :- Resource(R, 'CellLine', L)", "Q(L) :- Resource(R, 'Widget', L)"},
		{"Q(L) :- Resource(R, 'CellLine', L)", "Q(L) :- Resource(R, 'Software', L)"},
		{"Q(L) :- Resource(1, C, L)", "Q(L) :- Resource(7, C, L)"},
		{"Q(R) :- Resource(R, C, '1')", "Q(R) :- Resource(R, C, '7')"},
		{"Q(L) :- Resource(R, C, L), Provider(R, 2.5)", "Q(L) :- Resource(R, C, L), Provider(R, 3.5)"},
		{"Q(L) :- Resource(7, C, L)", "Q(X) :- Resource(7, C, X)"},
		{"Q(L) :- Resource(7, C, L)", "Q(L) :- Resource(7, D, L)"},
	}
	for _, p := range differ {
		if key(p[0]) == key(p[1]) {
			t.Errorf("%s and %s should not share a key", p[0], p[1])
		}
	}

	// Lookalikes beside each other, and the floats == cannot tell apart,
	// stay literal: no class constants.
	q := &cq.Query{Name: "Q", Head: []cq.Term{cq.Var("L")}, Body: []cq.Atom{
		cq.NewAtom("Resource", cq.Const(value.Int(5)), cq.Var("C"), cq.Var("L")),
		cq.NewAtom("Provider", cq.Const(value.Float(5)), cq.Var("L")),
		cq.NewAtom("Provider", cq.Const(value.Float(0)), cq.Const(value.Float(math.NaN()))),
	}}
	if _, classes := shapeKey(nil, q, vs, rewrite.MethodMiniCon, false, nil); len(classes) != 0 {
		t.Errorf("lookalikes, a zero and a NaN gave class constants %v", classes)
	}
	// A variable that could sort before a constant rendering keeps every
	// constant literal.
	q = &cq.Query{Name: "Q", Head: []cq.Term{cq.Var("1x")}, Body: []cq.Atom{
		cq.NewAtom("Provider", cq.Const(value.Int(5)), cq.Var("1x")),
	}}
	if _, classes := shapeKey(nil, q, vs, rewrite.MethodMiniCon, false, nil); len(classes) != 0 {
		t.Errorf("a digit-led variable name gave class constants %v", classes)
	}

	base := cq.MustParse("Q(L) :- Resource(7, C, L)")
	k0, _ := shapeKey(nil, base, vs, rewrite.MethodMiniCon, false, nil)
	for name, k := range map[string]func() []byte{
		"method":  func() []byte { k, _ := shapeKey(nil, base, vs, rewrite.MethodBucket, false, nil); return k },
		"partial": func() []byte { k, _ := shapeKey(nil, base, vs, rewrite.MethodMiniCon, true, nil); return k },
		"generation": func() []byte {
			next := *vs
			next.gen++
			k, _ := shapeKey(nil, base, &next, rewrite.MethodMiniCon, false, nil)
			return k
		},
	} {
		if string(k()) == string(k0) {
			t.Errorf("a different %s shares the key", name)
		}
	}
}

// TestRewriteMemoKeepsCitedShapeAtCap: the memo evicts one shape at a
// time past its bound, by SIEVE, so a shape cited again before as many
// new shapes as the bound fill the memo is still a hit after them.
func TestRewriteMemoKeepsCitedShapeAtCap(t *testing.T) {
	g := NewGenerator(gtopdbMemoViews(t).reg, nil)
	cite := func(desc string) bool {
		t.Helper()
		_, _, hit, err := g.rewriteStage(cq.MustParse("Q(N) :- Family(1, N, "+desc+")"), rewrite.MethodMiniCon)
		if err != nil {
			t.Fatal(err)
		}
		return hit
	}
	if cite("D") || !cite("D") {
		t.Fatal("the first cite of a shape must miss and the second hit")
	}
	for i := range maxMemoEntries {
		if cite(fmt.Sprintf("D%d", i)) {
			t.Fatalf("new shape %d hit", i)
		}
	}
	if !cite("D") {
		t.Fatalf("%d new shapes evicted the cited shape", maxMemoEntries)
	}
	if st := g.RewriteMemoStats(); st.Entries != maxMemoEntries || st.Evicted != 1 || st.Hits != 2 || st.Misses != maxMemoEntries+1 {
		t.Fatalf("stats %+v, want %d entries, 1 evicted, 2 hits, %d misses", st, maxMemoEntries, maxMemoEntries+1)
	}
}

// TestRewriteMemoConcurrentFirstCitesMissOnce: cites of a new shape that
// arrive together run the rewriter once; the others wait for its entry
// and get their own constants' rewritings from it. The shape's four
// Family atoms keep the rewriter busy for milliseconds, so the cites
// overlap.
func TestRewriteMemoConcurrentFirstCitesMissOnce(t *testing.T) {
	g := NewGenerator(gtopdbMemoViews(t).reg, nil)
	q := func(fid int) *cq.Query {
		return cq.MustParse(fmt.Sprintf("Q(N, T) :- Family(%[1]d, N, D), Family(%[1]d, N1, D1), "+
			"Family(%[1]d, N2, D2), Family(%[1]d, N3, D3), FamilyIntro(%[1]d, T)", fid))
	}
	want := make([][]string, 8)
	for i := range want {
		direct, _, _ := directRewriting(t, g, q(i), rewrite.MethodMiniCon)
		want[i] = rewritingStrings(direct)
	}
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range want {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			rws, _, _, err := g.rewriteStage(q(i), rewrite.MethodMiniCon)
			if err != nil {
				t.Error(err)
				return
			}
			if got := rewritingStrings(rws); !slices.Equal(got, want[i]) {
				t.Errorf("cite %d: %q, want %q", i, got, want[i])
			}
		}()
	}
	close(start)
	wg.Wait()
	if st := g.RewriteMemoStats(); st.Misses != 1 || st.Hits != 7 {
		t.Fatalf("stats %+v, want 1 miss and 7 hits", st)
	}
}

// TestRewriteMemoHitSharesNothing: a hit hands out fresh rewritings, so a
// caller that modifies its result cannot reach the entry or another
// cite's result.
func TestRewriteMemoHitSharesNothing(t *testing.T) {
	g := NewGenerator(gtopdbMemoViews(t).reg, nil)
	q := func(fid int) *cq.Query {
		return cq.MustParse(fmt.Sprintf("Q(N, T) :- Family(%d, N, D), FamilyIntro(%d, T)", fid, fid))
	}
	miss, _, hit, err := g.rewriteStage(q(1), rewrite.MethodMiniCon)
	if err != nil || hit {
		t.Fatalf("first cite: hit %v, err %v", hit, err)
	}
	want := rewritingStrings(miss)
	miss[0].ViewAtoms[0].Args[0] = cq.Const(value.Int(99))
	first, _, hit, err := g.rewriteStage(q(1), rewrite.MethodMiniCon)
	if err != nil || !hit {
		t.Fatalf("second cite: hit %v, err %v", hit, err)
	}
	if got := rewritingStrings(first); !slices.Equal(got, want) {
		t.Fatalf("modifying the miss result reached the entry:\n%q\n%q", got, want)
	}
	first[0].Head = append(first[0].Head, cq.Var("Extra"))
	first[0].ViewAtoms[0].Args[0] = cq.Const(value.Int(99))
	second, _, _, err := g.rewriteStage(q(2), rewrite.MethodMiniCon)
	if err != nil {
		t.Fatal(err)
	}
	direct, _, _ := directRewriting(t, g, q(2), rewrite.MethodMiniCon)
	if got, want := rewritingStrings(second), rewritingStrings(direct); !slices.Equal(got, want) {
		t.Fatalf("modifying a hit result reached the entry:\n%q\n%q", got, want)
	}
}
