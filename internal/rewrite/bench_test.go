package rewrite

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/cq"
)

// chainViews builds experiment E5's view set for a chain of joins
// binary relations: copies λ-parameterized views per relation that keep
// both columns, and one distractor per relation that projects the join
// column away, which MiniCon rejects at MCD formation and the bucket
// algorithm only at certification. It returns the chain query
// Q(X0, Xjoins) :- R0(X0, X1), R1(X1, X2), … with the views.
func chainViews(joins, copies int) (*cq.Query, []*cq.Query) {
	var views []*cq.Query
	for i := range joins {
		for c := range copies {
			views = append(views, cq.MustParse(fmt.Sprintf("lambda A. V%d_%d(A, B) :- R%d(A, B)", i, c, i)))
		}
	}
	for i := range joins {
		views = append(views, cq.MustParse(fmt.Sprintf("VD%d(A) :- R%d(A, B)", i, i)))
	}
	body := make([]string, joins)
	for i := range body {
		body[i] = fmt.Sprintf("R%d(X%d, X%d)", i, i, i+1)
	}
	return cq.MustParse(fmt.Sprintf("Q(X0, X%d) :- %s", joins, strings.Join(body, ", "))), views
}

// BenchmarkRewrite rewrites E5's three-join chain over four copies of
// each view plus the distractors — 64 equivalent rewritings — with each
// algorithm. It reports the candidates each examined per op beside the
// time, since the gap between the two is what E5 measures.
func BenchmarkRewrite(b *testing.B) {
	q, views := chainViews(3, 4)
	for _, m := range []Method{MethodMiniCon, MethodBucket} {
		b.Run(m.String(), func(b *testing.B) {
			var res *Result
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var err error
				if res, err = Rewrite(q, views, Options{Method: m}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.CandidatesExamined), "candidates/op")
			b.ReportMetric(float64(len(res.Rewritings)), "rewritings/op")
		})
	}
}
