package eval

import (
	"context"
	"errors"
	"testing"

	"repro/internal/cq"
	"repro/internal/schema"
	"repro/internal/semiring"
	"repro/internal/storage"
	"repro/internal/value"
)

// bigSelfJoin builds a database where R has n tuples and returns the
// three-way self-join query (n^3 bindings).
func bigSelfJoin(t *testing.T, n int) (*storage.Database, *cq.Query) {
	t.Helper()
	s := schema.New()
	rs, err := schema.NewRelation("R", []schema.Attribute{{Name: "X", Kind: value.KindInt}})
	if err != nil {
		t.Fatal(err)
	}
	s.MustAdd(rs)
	db := storage.NewDatabase(s)
	for i := 0; i < n; i++ {
		if err := db.Insert("R", value.Int(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	db.BuildIndexes()
	return db, cq.MustParse("Q(X, Y, Z) :- R(X), R(Y), R(Z)")
}

// TestContextVariantsMatchPlain asserts the ctx-aware entry points produce
// exactly the plain results under a never-canceled context.
func TestContextVariantsMatchPlain(t *testing.T) {
	db, q := bigSelfJoin(t, 8)
	p, err := Compile(db, q)
	if err != nil {
		t.Fatal(err)
	}
	plain := p.Eval(db, nil)
	withCtx, err := p.EvalContext(context.Background(), db, nil)
	if err != nil {
		t.Fatal(err)
	}
	// A cancelable-but-never-canceled context takes the polling path.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	polled, err := p.EvalContext(ctx, db, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, got := range [][]storage.Tuple{withCtx, polled} {
		if len(got) != len(plain) {
			t.Fatalf("ctx eval returned %d tuples, plain %d", len(got), len(plain))
		}
		for i := range got {
			if !got[i].Equal(plain[i]) {
				t.Fatalf("tuple %d: ctx %v, plain %v", i, got[i], plain[i])
			}
		}
	}

	annot := func(pred string, tup storage.Tuple) int { return 1 }
	plainAnn := RunAnnotated[int](p, db, nil, semiring.Natural{}, annot)
	polledAnn, err := RunAnnotatedCtx[int](ctx, p, db, nil, semiring.Natural{}, annot)
	if err != nil {
		t.Fatal(err)
	}
	if len(plainAnn) != len(polledAnn) {
		t.Fatalf("ctx annotated run returned %d tuples, plain %d", len(polledAnn), len(plainAnn))
	}
	for i := range plainAnn {
		if !plainAnn[i].Tuple.Equal(polledAnn[i].Tuple) || plainAnn[i].Annotation != polledAnn[i].Annotation {
			t.Fatalf("row %d: ctx %v/%d, plain %v/%d",
				i, polledAnn[i].Tuple, polledAnn[i].Annotation, plainAnn[i].Tuple, plainAnn[i].Annotation)
		}
	}
}

// TestRunCancellation asserts the annotated and set-semantics runs abort
// with ctx.Err().
func TestRunCancellation(t *testing.T) {
	db, q := bigSelfJoin(t, 64)
	p, err := Compile(db, q)
	if err != nil {
		t.Fatal(err)
	}
	annot := func(pred string, tup storage.Tuple) int { return 1 }
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // pre-canceled: the run must abort before enumerating
	if _, err := RunAnnotatedCtx[int](ctx, p, db, nil, semiring.Natural{}, annot); !errors.Is(err, context.Canceled) {
		t.Errorf("RunAnnotatedCtx err = %v, want context.Canceled", err)
	}
	if _, err := p.EvalContext(ctx, db, nil); !errors.Is(err, context.Canceled) {
		t.Errorf("EvalContext err = %v, want context.Canceled", err)
	}
	if _, err := EvalContext(ctx, db, q); !errors.Is(err, context.Canceled) {
		t.Errorf("package EvalContext err = %v, want context.Canceled", err)
	}
}

// TestCancellationWithoutBindings asserts cancellation is observed even
// by a join that rejects every combination: the walk produces zero
// satisfying assignments, so polls paced on bindings would never fire —
// the walk paces on candidate tuples examined instead. The walk runs
// once through row steps, over the mutable database, and once through
// columnar steps, over its snapshot, so each step kind's poll is the only
// thing that can stop its run.
func TestCancellationWithoutBindings(t *testing.T) {
	s := schema.New()
	rs, err := schema.NewRelation("P", []schema.Attribute{
		{Name: "A", Kind: value.KindInt},
		{Name: "B", Kind: value.KindInt},
	})
	if err != nil {
		t.Fatal(err)
	}
	s.MustAdd(rs)
	db := storage.NewDatabase(s)
	// A chain i -> i+1: the join P(X,Y), P(Y,Z), P(Z,X) (a 3-cycle) has
	// no satisfying assignment over a pure chain.
	for i := 0; i < 5000; i++ {
		if err := db.Insert("P", value.Int(int64(i)), value.Int(int64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	db.BuildIndexes()
	snap := db.Snapshot()
	columnarize(t, snap)
	q := cq.MustParse("Q(X, Y, Z) :- P(X, Y), P(Y, Z), P(Z, X)")

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		columnar bool
		inst     Instance
	}{{false, db}, {true, snap}} {
		p, err := Compile(tc.inst, q)
		if err != nil {
			t.Fatal(err)
		}
		// Sanity: the join really is empty.
		if out := p.Eval(tc.inst, nil); len(out) != 0 {
			t.Fatalf("columnar=%v: cycle query returned %d tuples over a chain", tc.columnar, len(out))
		}
		st := p.getState()
		calls := 0
		if p.walk(ctx, st, tc.inst, nil, func(*runState) bool { calls++; return true }) {
			t.Errorf("columnar=%v: walk completed under a canceled context", tc.columnar)
		}
		if calls != 0 {
			t.Errorf("columnar=%v: join with no satisfying assignments invoked fn %d times", tc.columnar, calls)
		}
		want := 0
		if tc.columnar {
			want = len(p.steps)
		}
		if st.columnarSteps != want {
			t.Errorf("columnar=%v: %d steps read a columnar block, want %d", tc.columnar, st.columnarSteps, want)
		}
		p.putState(st)
		if _, err := p.EvalContext(ctx, tc.inst, nil); !errors.Is(err, context.Canceled) {
			t.Errorf("columnar=%v: EvalContext err = %v, want context.Canceled", tc.columnar, err)
		}
	}
}
