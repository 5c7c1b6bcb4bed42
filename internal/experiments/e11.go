package experiments

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/cq"
	"repro/internal/eval"
	"repro/internal/gtopdb"
	"repro/internal/semiring"
	"repro/internal/storage"
)

// e11Sizes are the database sizes (Family cardinalities) the experiment
// sweeps.
var e11Sizes = []int{100, 1000, 5000}

// E11PlanReuse measures what compiled query plans buy on the evaluation
// hot path: annotated evaluation of the gtopdb two-way join under the
// counting semiring, once compiling the plan on every call (what every
// evaluation paid before plans existed above the per-call interpreter
// work) and once reusing a warm plan. The citation generator compiles a
// plan only for the first query of a rewriting's shape over a snapshot's
// content, so the compile/call column is the planning share of that
// cite. Claim (ROADMAP north star + §1 "on-the-fly" generation): the
// per-call cost of a hot query should be join work, not planning work —
// warm plans must hold a constant allocation profile as the database
// grows. Both evaluate a frozen snapshot, the content a cite reads.
func E11PlanReuse() (*Table, error) {
	t := &Table{
		ID:    "E11",
		Title: "warm-plan vs compile-per-call evaluation",
		Claim: "a cached plan evaluates with flat per-call allocations; compile-per-call pays ordering, statistics and setup on every evaluation",
		Header: []string{
			"|Family|", "answer tuples", "compile/call(us)", "warm plan(us)",
			"compile allocs/op", "warm allocs/op",
		},
	}
	q := cq.MustParse("Q(FName, Text) :- Family(FID, FName, Desc), FamilyIntro(FID, Text)")
	sr := semiring.Natural{}
	count := func(string, storage.Tuple) int { return 1 }
	args := eval.Args(nil, q)
	for _, families := range e11Sizes {
		cfg := gtopdb.DefaultConfig()
		cfg.Families = families
		db := gtopdb.Generate(cfg).Snapshot()

		plan, err := eval.Compile(db, q)
		if err != nil {
			return nil, err
		}
		nTuples := len(plan.Eval(db, args))

		reps := 2000 / (1 + families/100)
		if reps < 5 {
			reps = 5
		}
		perCall, err := timePer(reps, func() error {
			_, err := eval.EvalAnnotated[int](db, q, sr, count)
			return err
		})
		if err != nil {
			return nil, err
		}
		warm, err := timePer(reps, func() error {
			eval.RunAnnotated[int](plan, db, args, sr, count)
			return nil
		})
		if err != nil {
			return nil, err
		}

		// Allocation profiles via the runtime's own counter; a handful of
		// runs is enough since both paths are deterministic.
		compileAllocs := testing.AllocsPerRun(5, func() {
			if _, err := eval.EvalAnnotated[int](db, q, sr, count); err != nil {
				panic(err)
			}
		})
		warmAllocs := testing.AllocsPerRun(5, func() {
			eval.RunAnnotated[int](plan, db, args, sr, count)
		})

		t.AddRow(
			fmt.Sprintf("%d", families),
			fmt.Sprintf("%d", nTuples),
			us(perCall),
			us(warm),
			fmt.Sprintf("%.0f", compileAllocs),
			fmt.Sprintf("%.0f", warmAllocs),
		)
	}
	return t, nil
}

// timePer measures the mean wall-clock duration of fn over reps runs.
func timePer(reps int, fn func() error) (time.Duration, error) {
	start := time.Now()
	for i := 0; i < reps; i++ {
		if err := fn(); err != nil {
			return 0, err
		}
	}
	return time.Since(start) / time.Duration(reps), nil
}
