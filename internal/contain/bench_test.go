package contain_test

import (
	"testing"

	"repro/internal/contain"
	"repro/internal/cq"
	"repro/internal/rewrite"
)

// BenchmarkEquivalent runs the certification of a serving rewriting: the
// expansion of the first rewriting the serving view set gives the
// two-join cite shape, checked equivalent to the query, as the rewriter
// checks every candidate. Each op checks the verdict.
func BenchmarkEquivalent(b *testing.B) {
	var views []*cq.Query
	for _, src := range []string{
		"lambda FID. FamilyView(FID, FName, Desc) :- Family(FID, FName, Desc)",
		"FamilyAll(FID, FName, Desc) :- Family(FID, FName, Desc)",
		"IntroView(FID, Text) :- FamilyIntro(FID, Text)",
		"lambda TID. TargetView(TID, FID, TName, Type) :- Target(TID, FID, TName, Type)",
	} {
		views = append(views, cq.MustParse(src))
	}
	q := cq.MustParse("Q(FName, TName) :- Target(7, FID, TName, Type), Family(FID, FName, Desc)")
	res, err := rewrite.Rewrite(q, views, rewrite.Options{})
	if err != nil || len(res.Rewritings) == 0 {
		b.Fatalf("%d rewritings: %v", len(res.Rewritings), err)
	}
	byName := make(map[string]*cq.Query, len(views))
	for _, v := range views {
		byName[v.Name] = v
	}
	exp, err := rewrite.Expand(res.Rewritings[0], byName)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !contain.Equivalent(exp, q) {
			b.Fatalf("%s is not certified equivalent to %s", exp, q)
		}
	}
}
