package citation

import (
	"cmp"
	"fmt"

	"repro/internal/policy"
	"repro/internal/rewrite"
	"repro/internal/storage"
)

// EstimateRewritingSize estimates, at the schema level and without
// materializing anything, the number of distinct citation atoms the
// rewriting would contribute: an unparameterized view contributes one atom
// regardless of the data, while a parameterized view contributes roughly
// one atom per distinct parameter combination, estimated from base-relation
// column statistics. This realizes the paper's closing example — "the
// estimated size of the citation using Q1 would … be proportional to the
// size of Family, whereas the estimated size … using Q2 would be 1" — and
// the §3 suggestion to "do some of the reasoning at the schema level".
func (g *Generator) EstimateRewritingSize(rw *rewrite.Rewriting) (int, error) {
	return g.estimateRewritingSize(g.db, rw)
}

// estimateRewritingSize is EstimateRewritingSize against an explicit
// target database (a committed snapshot for time-travel cites; frozen
// relations keep their statistics permanently, so repeated estimates are
// map lookups).
func (g *Generator) estimateRewritingSize(db *storage.Database, rw *rewrite.Rewriting) (int, error) {
	total := 0
	for _, va := range rw.ViewAtoms {
		v := g.reg.View(va.ViewName)
		if v == nil {
			return 0, fmt.Errorf("citation: unknown view %s", va.ViewName)
		}
		if len(v.Query.Params) == 0 {
			total++
			continue
		}
		est := 1
		for _, p := range v.Query.Params {
			d, err := g.estimateDistinct(db, v, p)
			if err != nil {
				return 0, err
			}
			if d > 0 {
				// Saturating multiply to avoid overflow on silly schemas.
				if est > 1<<30/d {
					est = 1 << 30
				} else {
					est *= d
				}
			}
		}
		total += est
	}
	return total, nil
}

// estimateDistinct estimates the number of distinct values of view
// parameter p from the statistics of a base column p occupies in the
// view's body, read from db.
func (g *Generator) estimateDistinct(db *storage.Database, v *View, p string) (int, error) {
	for _, a := range v.Query.Body {
		rel := db.Relation(a.Predicate)
		if rel == nil {
			continue
		}
		for j, t := range a.Terms {
			if t.IsVar && t.Name == p {
				return rel.DistinctCount(j), nil
			}
		}
	}
	return 0, fmt.Errorf("citation: view %s: parameter %s does not occur in the body", v.Name(), p)
}

// selectByEstimate returns the index of the rewriting the +R policy pol
// would choose, using schema-level size estimates (over db) instead of
// evaluated citations (policy.Pick: MinSize picks the smallest estimate,
// MaxCoverage the largest, ties toward the earlier rewriting in the
// engine's deterministic order).
func (g *Generator) selectByEstimate(db *storage.Database, rws []*rewrite.Rewriting, pol policy.Policy) (int, error) {
	var err error
	best := pol.Pick(len(rws), func(i int) int {
		est, e := g.estimateRewritingSize(db, rws[i])
		err = cmp.Or(err, e)
		return est
	})
	return best, err
}
