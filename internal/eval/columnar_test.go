package eval

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/cq"
	"repro/internal/gtopdb"
	"repro/internal/semiring"
	"repro/internal/storage"
	"repro/internal/trace"
	"repro/internal/workload"
)

// withColumnar runs fn with the columnar fast path forced on or off,
// restoring the previous setting afterwards.
func withColumnar(enabled bool, fn func()) {
	prev := columnarEnabled
	columnarEnabled = enabled
	defer func() { columnarEnabled = prev }()
	fn()
}

// columnarize builds the block of every relation of the frozen snapshot
// db.
func columnarize(t *testing.T, db *storage.Database) {
	t.Helper()
	for _, name := range db.Schema().Names() {
		if db.Relation(name).ColumnarBlock() == nil {
			t.Fatalf("%s built no columnar block", name)
		}
	}
}

// TestColumnarMatchesRowRandomized pins the columnar fast path against the
// row path on a randomized workload: for every generated query over a
// frozen snapshot, the set-semantics answers, binding counts, existence
// tests and every semiring's annotations must be identical whether the
// walk compares dictionary codes or value.Values. The row path is the
// oracle (itself pinned against the naive interpreter by
// TestPlanMatchesNaiveOracleRandomized). A mutable database has no
// blocks, so both runs over it would take the row path.
func TestColumnarMatchesRowRandomized(t *testing.T) {
	cfg := gtopdb.DefaultConfig()
	cfg.Families = 60
	snap := gtopdb.Generate(cfg).Snapshot()
	columnarize(t, snap)

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
				compareColumnarToRow(t, name, snap, q)
			}
		}
	}
}

// compareColumnarToRow checks one query on one instance across both
// storage paths and all semirings.
func compareColumnarToRow(t *testing.T, name string, inst Instance, q *cq.Query) {
	t.Helper()

	var wantTuples []storage.Tuple
	var wantCount int
	var wantHas bool
	withColumnar(false, func() {
		var err error
		if wantTuples, err = Eval(inst, q); err != nil {
			t.Fatalf("%s: row Eval: %v", name, err)
		}
		if wantCount, err = CountBindings(inst, q); err != nil {
			t.Fatalf("%s: row CountBindings: %v", name, err)
		}
		if wantHas, err = HasBinding(inst, q); err != nil {
			t.Fatalf("%s: row HasBinding: %v", name, err)
		}
	})

	withColumnar(true, func() {
		got, err := Eval(inst, q)
		if err != nil {
			t.Fatalf("%s: columnar Eval: %v", name, err)
		}
		if len(got) != len(wantTuples) {
			t.Fatalf("%s: columnar %d tuples, row %d", name, len(got), len(wantTuples))
		}
		for i := range wantTuples {
			if !got[i].Equal(wantTuples[i]) {
				t.Fatalf("%s: tuple %d: columnar %v, row %v", name, i, got[i], wantTuples[i])
			}
		}
		n, err := CountBindings(inst, q)
		if err != nil {
			t.Fatalf("%s: columnar CountBindings: %v", name, err)
		}
		if n != wantCount {
			t.Fatalf("%s: columnar CountBindings = %d, row %d", name, n, wantCount)
		}
		has, err := HasBinding(inst, q)
		if err != nil {
			t.Fatalf("%s: columnar HasBinding: %v", name, err)
		}
		if has != wantHas {
			t.Fatalf("%s: columnar HasBinding = %v, row %v", name, has, wantHas)
		}
	})

	compareSemiringPaths(t, name, inst, q, semiring.Bool{},
		func(string, storage.Tuple) bool { return true })
	compareSemiringPaths(t, name, inst, q, semiring.Natural{},
		func(string, storage.Tuple) int { return 1 })
	why := semiring.Why{}
	compareSemiringPaths[semiring.WhySet](t, name, inst, q, why,
		func(pred string, tp storage.Tuple) semiring.WhySet {
			return why.Singleton(pred + ":" + tp.Key())
		})
	poly := semiring.Polynomial{}
	compareSemiringPaths[semiring.Poly](t, name, inst, q, poly,
		func(pred string, tp storage.Tuple) semiring.Poly {
			return poly.Token(pred + ":" + tp.Key())
		})
}

// compareSemiringPaths compares columnar vs row annotated evaluation under
// one semiring. Both paths must agree on tuple order and on the
// annotation values — including the structure of free expressions, which
// is sensitive to enumeration order.
func compareSemiringPaths[T any](t *testing.T, name string, inst Instance, q *cq.Query, sr semiring.Semiring[T], annot func(string, storage.Tuple) T) {
	t.Helper()
	var want []Annotated[T]
	var err error
	withColumnar(false, func() {
		want, err = EvalAnnotated(inst, q, sr, annot)
	})
	if err != nil {
		t.Fatalf("%s: row annotated: %v", name, err)
	}
	var got []Annotated[T]
	withColumnar(true, func() {
		got, err = EvalAnnotated(inst, q, sr, annot)
	})
	if err != nil {
		t.Fatalf("%s: columnar annotated: %v", name, err)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: columnar %d annotated tuples, row %d", name, len(got), len(want))
	}
	for i := range want {
		if !got[i].Tuple.Equal(want[i].Tuple) {
			t.Fatalf("%s: tuple %d differs: columnar %v, row %v",
				name, i, got[i].Tuple, want[i].Tuple)
		}
		if !sr.Equal(got[i].Annotation, want[i].Annotation) {
			t.Fatalf("%s: tuple %d annotation diverged:\ncolumnar %v\n     row %v",
				name, i, got[i].Annotation, want[i].Annotation)
		}
	}
}

// TestColumnarCancellation: the columnar walk observes a context canceled
// mid-enumeration, exactly like the row walk. The annotation callback
// cancels at the first binding, after the entry check has passed, so only
// the walk's own poll can stop the run before it completes.
func TestColumnarCancellation(t *testing.T) {
	cfg := gtopdb.DefaultConfig()
	cfg.Families = 200
	snap := gtopdb.Generate(cfg).Snapshot()
	columnarize(t, snap)
	q := cq.MustParse("Q(A, B) :- Family(F, A, D), Committee(F, B)")
	p, err := Compile(snap, q)
	if err != nil {
		t.Fatal(err)
	}
	args := Args(nil, q)
	bindings := p.CountBindings(snap, args)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	calls := 0
	_, err = RunAnnotatedCtx(ctx, p, snap, args, semiring.Natural{}, func(string, storage.Tuple) int {
		calls++
		cancel()
		return 1
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("columnar run canceled mid-walk: err = %v, want context.Canceled", err)
	}
	if all := bindings * len(p.steps); calls >= all {
		t.Errorf("canceled walk annotated %d matched tuples, as many as the full run's %d", calls, all)
	}
}

// TestColumnarScanAllocsZero: warm columnar enumeration over a frozen
// snapshot allocates nothing per binding — full scans iterate the dense
// code vectors, probes walk posting lists in place, and the pooled run
// state carries every buffer. Counting and existence runs are the
// allocation-free consumers, so they must measure exactly zero.
func TestColumnarScanAllocsZero(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation makes sync.Pool allocate per Get")
	}
	cfg := gtopdb.DefaultConfig()
	cfg.Families = 50
	snap := gtopdb.Generate(cfg).Snapshot()
	columnarize(t, snap)

	for _, tc := range []struct {
		label string
		query string
	}{
		{"scan", "Q(A, B) :- Family(F, A, B)"},
		{"join", "Q(A, B) :- Family(F, A, D), Committee(F, B)"},
		{"const-probe", `Q(B) :- Family(F, "family-7", D), Committee(F, B)`},
	} {
		q := cq.MustParse(tc.query)
		p, err := Compile(snap, q)
		if err != nil {
			t.Fatalf("%s: %v", tc.label, err)
		}
		args := Args(nil, q)
		want := p.CountBindings(snap, args) // warm the pool and the blocks
		if allocs := testing.AllocsPerRun(100, func() {
			if n := p.CountBindings(snap, args); n != want {
				t.Fatalf("%s: count changed: %d != %d", tc.label, n, want)
			}
		}); allocs != 0 {
			t.Errorf("%s: warm columnar CountBindings allocates %.1f per run, want 0", tc.label, allocs)
		}
		if allocs := testing.AllocsPerRun(100, func() { p.HasBinding(snap, args) }); allocs != 0 {
			t.Errorf("%s: warm columnar HasBinding allocates %.1f per run, want 0", tc.label, allocs)
		}
	}
}

// TestColumnarWalkEncodesReadColumnsOnly: planning and walking a plan
// encode only the block columns its steps compare codes on. A full scan
// encodes none, and a probed column is encoded once, however many plans
// probe it.
func TestColumnarWalkEncodesReadColumnsOnly(t *testing.T) {
	cfg := gtopdb.DefaultConfig()
	cfg.Families = 20
	snap := gtopdb.Generate(cfg).Snapshot()
	columnarize(t, snap)
	encodedBy := func(query string) uint64 {
		u := storage.ColumnarUsage()
		before := u.DictBytes + u.CodeBytes
		q := cq.MustParse(query)
		p, err := Compile(snap, q)
		if err != nil {
			t.Fatal(err)
		}
		if p.CountBindings(snap, Args(nil, q)) == 0 {
			t.Fatalf("%s: no bindings", query)
		}
		u = storage.ColumnarUsage()
		return u.DictBytes + u.CodeBytes - before
	}
	if n := encodedBy("Q(A, B) :- Family(F, A, B)"); n != 0 {
		t.Errorf("a full scan encoded %d bytes of columns, want 0", n)
	}
	if n := encodedBy("Q(A) :- Family(7, A, B)"); n == 0 {
		t.Error("a probe encoded no column")
	}
	if n := encodedBy("Q(A) :- Family(9, A, B)"); n != 0 {
		t.Errorf("a second probe of the same column encoded %d more bytes, want 0", n)
	}
}

// TestColumnarSpanAttribute: a traced run over columnar-served relations
// records the `columnar` attribute (and the step count) on the eval span,
// so /debug/traces shows which storage path served a request.
func TestColumnarSpanAttribute(t *testing.T) {
	cfg := gtopdb.DefaultConfig()
	cfg.Families = 20
	snap := gtopdb.Generate(cfg).Snapshot()
	columnarize(t, snap)
	q := cq.MustParse("Q(A, B) :- Family(F, A, D), Committee(F, B)")
	p, err := Compile(snap, q)
	if err != nil {
		t.Fatal(err)
	}

	tr := trace.New("test")
	ctx := trace.ContextWithSpan(context.Background(), tr.Root())
	if _, err := RunAnnotatedCtx(ctx, p, snap, nil, semiring.Bool{},
		func(string, storage.Tuple) bool { return true }); err != nil {
		t.Fatal(err)
	}
	attrs := tr.Root().Snapshot().Attrs
	if v, ok := attrs["columnar"]; !ok || v != true {
		t.Fatalf("columnar attr = %v (present=%v), want true", v, ok)
	}
	if v, ok := attrs["columnar_steps"]; !ok || v != len(p.steps) {
		t.Fatalf("columnar_steps attr = %v (present=%v), want %d", v, ok, len(p.steps))
	}

	// The row path reports columnar=false.
	withColumnar(false, func() {
		tr2 := trace.New("test-row")
		ctx2 := trace.ContextWithSpan(context.Background(), tr2.Root())
		if _, err := RunAnnotatedCtx(ctx2, p, snap, nil, semiring.Bool{},
			func(string, storage.Tuple) bool { return true }); err != nil {
			t.Fatal(err)
		}
		if v := tr2.Root().Snapshot().Attrs["columnar"]; v != false {
			t.Fatalf("row-path columnar attr = %v, want false", v)
		}
	})
}
