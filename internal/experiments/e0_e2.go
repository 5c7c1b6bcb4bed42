package experiments

import (
	"fmt"

	"repro/internal/citeexpr"
	"repro/internal/cq"
	"repro/internal/policy"
)

// E0PaperExample reproduces the paper's §2 worked example and reports the
// formal citation, the per-branch sizes, and the +R selection.
func E0PaperExample() (*Table, error) {
	sys, err := PaperSystem()
	if err != nil {
		return nil, err
	}
	sys.Commit("v1")
	cite, err := sys.CiteQuery(PaperQuery())
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "E0",
		Title: "paper §2 worked example (Calcitonin)",
		Claim: "citation is (CV1(11)·CV3 + CV1(12)·CV3) +R (CV2·CV3); min-size +R selects CV2·CV3",
		Header: []string{
			"tuple", "formal citation", "selected (+R min-size)", "selected size",
		},
	}
	for _, tc := range cite.Result.Tuples {
		t.AddRow(tc.Tuple.String(), tc.Expr().String(), tc.Selected().String(),
			fmt.Sprintf("%d", citeexpr.Size(tc.Selected())))
	}
	return t, nil
}

// E1RewritingSearch sweeps the number of interchangeable views per subgoal
// and compares exhaustive citation generation (evaluate every rewriting,
// then apply +R) against cost-pruned generation (schema-level estimate,
// evaluate one rewriting). Claim (§3 "calculating citations"): going
// through all rewritings is infeasible; cost functions must reduce the
// search space.
func E1RewritingSearch() (*Table, error) {
	t := &Table{
		ID:     "E1",
		Title:  "rewriting search: exhaustive vs cost-pruned citation generation",
		Claim:  "evaluating all rewritings is infeasible (cost grows as copies^joins); schema-level pruning stays flat",
		Header: []string{"joins", "views/subgoal", "rewritings", "exhaustive(ms)", "pruned(ms)", "speedup"},
	}
	for _, joins := range []int{2, 3} {
		for _, copies := range []int{2, 3, 4} {
			cs, err := NewChainSetup(joins, copies, 50)
			if err != nil {
				return nil, err
			}
			gen := cs.Sys.Generator()
			gen.InvalidateCache()
			var nRewritings int
			exhaustive, err := timeIt(func() error {
				res, err := gen.Cite(cs.Query)
				if err != nil {
					return err
				}
				nRewritings = res.Stats.RewritingsFound
				return nil
			})
			if err != nil {
				return nil, err
			}
			gen.InvalidateCache()
			gen.CostPruned = true
			pruned, err := timeIt(func() error {
				_, err := gen.Cite(cs.Query)
				return err
			})
			if err != nil {
				return nil, err
			}
			speedup := float64(exhaustive) / float64(pruned)
			t.AddRow(fmt.Sprintf("%d", joins), fmt.Sprintf("%d", copies),
				fmt.Sprintf("%d", nRewritings), ms(exhaustive), ms(pruned),
				fmt.Sprintf("%.1fx", speedup))
		}
	}
	return t, nil
}

// E2CitationSize sweeps the database size and reports the citation size
// under the min-size and max-coverage +R policies. Claim (§2 closing
// example): with a parameterized view the citation size is proportional to
// |Family|; the unparameterized rewriting keeps it constant, and min-size
// +R picks it.
func E2CitationSize() (*Table, error) {
	t := &Table{
		ID:     "E2",
		Title:  "citation size vs database size under +R policies",
		Claim:  "min-size citation stays O(1) while max-coverage grows linearly with |Family|",
		Header: []string{"|Family|", "min-size atoms", "min-size fields", "max-coverage atoms", "max-coverage fields"},
	}
	q := cq.MustParse("Q(FID, FName) :- Family(FID, FName, Desc)")
	for _, families := range []int{100, 1000, 5000} {
		sys, err := GtoPdbSystem(families)
		if err != nil {
			return nil, err
		}
		gen := sys.Generator()
		resMin, err := gen.Cite(q)
		if err != nil {
			return nil, err
		}
		minAtoms := citeexpr.Size(resMin.Expr())
		p := policy.Default()
		p.AltR = policy.MaxCoverage
		gen.SetPolicy(p)
		gen.InvalidateCache()
		resMax, err := gen.Cite(q)
		if err != nil {
			return nil, err
		}
		maxAtoms := citeexpr.Size(resMax.Expr())
		t.AddRow(fmt.Sprintf("%d", families),
			fmt.Sprintf("%d", minAtoms), fmt.Sprintf("%d", resMin.Record.Size()),
			fmt.Sprintf("%d", maxAtoms), fmt.Sprintf("%d", resMax.Record.Size()))
	}
	return t, nil
}
