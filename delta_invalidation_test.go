package datacitation_test

// Delta-invalidation correctness at the public API: after a commit
// touching relation R, every citation served from surviving caches must
// be byte-identical to a fresh recomputation, and every query reading R
// must recompute and see the new data. Run under -race (the CI does) — concurrent citers hammer
// both query families while the writer commits single-relation deltas.

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	datacitation "repro"
)

// contentText canonicalizes a citation's content for byte-identity
// comparison: the full rendered text with the pin reduced to the result
// digest — the pin's version and retrieval timestamp legitimately track
// the commit history, while the digest pins the bytes of the answer.
func contentText(c *datacitation.Citation) string {
	out := c.Result.Expr().String() + "\n" + c.Text()
	if c.Pin != nil {
		out = c.Result.Expr().String() + "\nsha256=" + c.Pin.Digest
		for _, tc := range c.Result.Tuples {
			out += "\n" + tc.Expr().String() + "|" + tc.Selected().String()
		}
	}
	return out
}

// buildDeltaSystem extends the API-test fixture with a third relation
// and a second view so the workload splits into two query families with
// disjoint read-sets: Family queries read {Committee, Family} and
// FamilyIntro queries read only {FamilyIntro}.
func buildDeltaSystem(t *testing.T) *datacitation.System {
	t.Helper()
	s := datacitation.NewSchema()
	family, err := datacitation.NewRelationSchema("Family", []datacitation.Attribute{
		{Name: "FID", Kind: datacitation.KindInt},
		{Name: "FName", Kind: datacitation.KindString},
		{Name: "Desc", Kind: datacitation.KindString},
	}, "FID")
	if err != nil {
		t.Fatal(err)
	}
	s.MustAdd(family)
	committee, err := datacitation.NewRelationSchema("Committee", []datacitation.Attribute{
		{Name: "FID", Kind: datacitation.KindInt},
		{Name: "PName", Kind: datacitation.KindString},
	})
	if err != nil {
		t.Fatal(err)
	}
	s.MustAdd(committee)
	intro, err := datacitation.NewRelationSchema("FamilyIntro", []datacitation.Attribute{
		{Name: "FID", Kind: datacitation.KindInt},
		{Name: "Text", Kind: datacitation.KindString},
	}, "FID")
	if err != nil {
		t.Fatal(err)
	}
	s.MustAdd(intro)

	sys := datacitation.NewSystem(s)
	db := sys.Database()
	for _, r := range [][]datacitation.Value{
		{datacitation.Int(1), datacitation.String("Calcitonin"), datacitation.String("C1")},
		{datacitation.Int(2), datacitation.String("Adenosine"), datacitation.String("A1")},
	} {
		if err := db.Insert("Family", r...); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Insert("Committee", datacitation.Int(1), datacitation.String("Alice")); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("Committee", datacitation.Int(2), datacitation.String("Bob")); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("FamilyIntro", datacitation.Int(1), datacitation.String("intro 1")); err != nil {
		t.Fatal(err)
	}
	db.BuildIndexes()

	if err := sys.DefineView(
		"lambda FID. FamView(FID, FName, Desc) :- Family(FID, FName, Desc)",
		datacitation.NewRecord(datacitation.FieldDatabase, "GtoPdb"),
		datacitation.CitationSpec{
			Query:  "lambda FID. CFam(FID, PName) :- Committee(FID, PName)",
			Fields: []string{datacitation.FieldIdentifier, datacitation.FieldAuthor},
		}); err != nil {
		t.Fatal(err)
	}
	if err := sys.DefineView(
		"lambda FID. IntroView(FID, Text) :- FamilyIntro(FID, Text)",
		datacitation.NewRecord(datacitation.FieldDatabase, "GtoPdb"),
		datacitation.CitationSpec{
			Query:  "lambda FID. CIntro(FID, Text) :- FamilyIntro(FID, Text)",
			Fields: []string{datacitation.FieldIdentifier, datacitation.FieldTitle},
		}); err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestDeltaInvalidationByteIdentity commits single-relation FamilyIntro
// deltas while concurrent citers hammer both query families, and after
// every commit asserts (a) the untouched Family citation — served from
// surviving plan/view/atom caches — is byte-identical to its pre-commit
// form, (b) the FamilyIntro citation recomputes and reflects the new
// tuples, and (c) at the end, a fully cold recomputation reproduces the
// warm results byte for byte.
func TestDeltaInvalidationByteIdentity(t *testing.T) {
	sys := buildDeltaSystem(t)
	sys.Commit("base")

	const (
		qFam   = "Q(FName) :- Family(FID, FName, Desc)"
		qIntro = "Q(Text) :- FamilyIntro(FID, Text)"
		rounds = 4
		citers = 8
	)

	famCite, err := sys.Cite(qFam)
	if err != nil {
		t.Fatal(err)
	}
	if got := famCite.Result.Reads; !reflect.DeepEqual(got, []string{"Committee", "Family"}) {
		t.Fatalf("Family query Reads = %v, want [Committee Family]", got)
	}
	famText := contentText(famCite)
	introCite, err := sys.Cite(qIntro)
	if err != nil {
		t.Fatal(err)
	}
	if got := introCite.Result.Reads; !reflect.DeepEqual(got, []string{"FamilyIntro"}) {
		t.Fatalf("FamilyIntro query Reads = %v, want [FamilyIntro]", got)
	}
	introTuples := len(introCite.Result.Tuples)

	var stop atomic.Bool
	var wg sync.WaitGroup
	errc := make(chan error, citers)
	for w := 0; w < citers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			queries := []string{qFam, qIntro}
			for i := 0; !stop.Load(); i++ {
				c, err := sys.Cite(queries[(w+i)%len(queries)])
				if err != nil {
					errc <- fmt.Errorf("citer %d iter %d: %w", w, i, err)
					return
				}
				if len(c.Result.Tuples) == 0 {
					errc <- fmt.Errorf("citer %d iter %d: empty citation", w, i)
					return
				}
			}
		}(w)
	}

	db := sys.Database()
	for r := 1; r <= rounds; r++ {
		if err := db.Insert("FamilyIntro",
			datacitation.Int(int64(100+r)), datacitation.String(fmt.Sprintf("delta intro %d", r))); err != nil {
			t.Fatal(err)
		}
		if _, _, err := sys.CommitVersioned(fmt.Sprintf("delta %d", r)); err != nil {
			t.Fatal(err)
		}

		// Untouched family: the surviving caches serve the same bytes.
		fc, err := sys.Cite(qFam)
		if err != nil {
			t.Fatal(err)
		}
		if got := contentText(fc); got != famText {
			t.Fatalf("round %d: survivor-served Family citation diverged:\n got %s\nwant %s", r, got, famText)
		}
		// Touched intro: the citation recomputes and sees the new tuple.
		ic, err := sys.Cite(qIntro)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := len(ic.Result.Tuples), introTuples+r; got != want {
			t.Fatalf("round %d: FamilyIntro citation has %d tuples, want %d (stale cache?)", r, got, want)
		}
	}
	stop.Store(true)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	// Cold-cache recomputation must reproduce the warm results byte for
	// byte — the survivors never served stale data.
	warmFam, err := sys.Cite(qFam)
	if err != nil {
		t.Fatal(err)
	}
	warmIntro, err := sys.Cite(qIntro)
	if err != nil {
		t.Fatal(err)
	}
	sys.Generator().InvalidateCache()
	coldFam, err := sys.Cite(qFam)
	if err != nil {
		t.Fatal(err)
	}
	coldIntro, err := sys.Cite(qIntro)
	if err != nil {
		t.Fatal(err)
	}
	if contentText(warmFam) != contentText(coldFam) {
		t.Errorf("Family: warm %s\ncold %s", contentText(warmFam), contentText(coldFam))
	}
	if contentText(warmIntro) != contentText(coldIntro) {
		t.Errorf("FamilyIntro: warm %s\ncold %s", contentText(warmIntro), contentText(coldIntro))
	}
}
