package eval

import (
	"fmt"
	"testing"

	"repro/internal/cq"
	"repro/internal/gtopdb"
	"repro/internal/semiring"
	"repro/internal/storage"
	"repro/internal/workload"
)

// TestPlanMatchesNaiveOracleRandomized compares the compiled-plan
// evaluator against the retained pre-plan interpreter (the oracle) on a
// randomized conjunctive-query workload over the gtopdb instance: distinct
// answer tuples, binding counts, and annotations under every semiring with
// a semantic Equal must be identical — regardless of the plan's own atom
// ordering and probe choices.
func TestPlanMatchesNaiveOracleRandomized(t *testing.T) {
	cfg := gtopdb.DefaultConfig()
	cfg.Families = 60
	db := gtopdb.Generate(cfg)

	for _, shape := range []workload.Shape{workload.Chain, workload.Star} {
		for seed := int64(1); seed <= 3; seed++ {
			queries, err := workload.Generate(gtopdb.Schema(), workload.Config{
				Queries:     25,
				MinAtoms:    1,
				MaxAtoms:    3,
				ProjectRate: 0.5,
				Shape:       shape,
				Seed:        seed,
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, q := range queries {
				name := fmt.Sprintf("%s-seed%d-%s", shape, seed, q.Name)

				// Set semantics.
				want, err := naiveEval(db, q)
				if err != nil {
					t.Fatalf("%s: oracle: %v", name, err)
				}
				got, err := Eval(db, q)
				if err != nil {
					t.Fatalf("%s: plan: %v", name, err)
				}
				if len(got) != len(want) {
					t.Fatalf("%s: %d tuples, oracle has %d", name, len(got), len(want))
				}
				for i := range want {
					if !got[i].Equal(want[i]) {
						t.Fatalf("%s: tuple %d: got %v, want %v", name, i, got[i], want[i])
					}
				}

				// Binding counts (bag multiplicity) from the no-allocation
				// path vs the oracle's enumeration.
				atoms, err := orderAtoms(db, q.Body)
				if err != nil {
					t.Fatalf("%s: oracle order: %v", name, err)
				}
				oracleCount := 0
				enumerate(db, atoms, func(Binding, []storage.Tuple) bool {
					oracleCount++
					return true
				})
				n, err := CountBindings(db, q)
				if err != nil {
					t.Fatalf("%s: count: %v", name, err)
				}
				if n != oracleCount {
					t.Fatalf("%s: CountBindings = %d, oracle enumerates %d", name, n, oracleCount)
				}
				has, err := HasBinding(db, q)
				if err != nil {
					t.Fatalf("%s: has: %v", name, err)
				}
				if has != (oracleCount > 0) {
					t.Fatalf("%s: HasBinding = %v with %d bindings", name, has, oracleCount)
				}

				// Annotated evaluation under every semiring.
				checkSemiring(t, name, db, q, semiring.Bool{},
					func(string, storage.Tuple) bool { return true })
				checkSemiring(t, name, db, q, semiring.Natural{},
					func(string, storage.Tuple) int { return 1 })
				why := semiring.Why{}
				checkSemiring[semiring.WhySet](t, name, db, q, why,
					func(pred string, tp storage.Tuple) semiring.WhySet {
						return why.Singleton(pred + ":" + tp.Key())
					})
				poly := semiring.Polynomial{}
				checkSemiring[semiring.Poly](t, name, db, q, poly,
					func(pred string, tp storage.Tuple) semiring.Poly {
						return poly.Token(pred + ":" + tp.Key())
					})
			}
		}
	}
}

// checkSemiring compares plan-based annotated evaluation against the
// naive oracle under one semiring.
func checkSemiring[T any](t *testing.T, name string, inst Instance, query *cq.Query, sr semiring.Semiring[T], annot func(string, storage.Tuple) T) {
	t.Helper()
	want, err := naiveEvalAnnotated(inst, query, sr, annot)
	if err != nil {
		t.Fatalf("%s: oracle annotated: %v", name, err)
	}
	got, err := EvalAnnotated(inst, query, sr, annot)
	if err != nil {
		t.Fatalf("%s: plan annotated: %v", name, err)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d annotated tuples, oracle has %d", name, len(got), len(want))
	}
	for i := range want {
		if !got[i].Tuple.Equal(want[i].Tuple) {
			t.Fatalf("%s: tuple %d differs: got %v, want %v",
				name, i, got[i].Tuple, want[i].Tuple)
		}
		if !sr.Equal(got[i].Annotation, want[i].Annotation) {
			t.Fatalf("%s: tuple %d annotation diverged:\n got %v\nwant %v",
				name, i, got[i].Annotation, want[i].Annotation)
		}
	}
}
