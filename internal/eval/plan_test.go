package eval

import (
	"testing"

	"repro/internal/cq"
	"repro/internal/semiring"
	"repro/internal/storage"
	"repro/internal/value"
)

func TestCompileErrors(t *testing.T) {
	db := edgeDB(t, nil)
	if _, err := Compile(db, cq.MustParse("Q(X) :- Nope(X, Y)")); err == nil {
		t.Error("unknown relation compiled")
	}
	if _, err := Compile(db, cq.MustParse("Q(X) :- E(X, Y, Z)")); err == nil {
		t.Error("arity mismatch compiled")
	}
	// Head variable absent from the body is rejected at compile time.
	q := &cq.Query{Name: "Bad", Head: []cq.Term{cq.Var("W")}, Body: cq.MustParse("Q(X) :- E(X, Y)").Body}
	if _, err := Compile(db, q); err == nil {
		t.Error("unsafe head variable compiled")
	}
}

func TestPlanSlotNumbering(t *testing.T) {
	db := edgeDB(t, [][2]int64{{1, 2}})
	p, err := Compile(db, cq.MustParse("Q(X, Z) :- E(X, Y), E(Y, Z)"))
	if err != nil {
		t.Fatal(err)
	}
	if p.nslots != 3 {
		t.Errorf("slots = %d, want 3 (X, Y, Z)", p.nslots)
	}
	// Repeated variables inside one atom share a slot.
	p, err = Compile(db, cq.MustParse("Q(X) :- E(X, X)"))
	if err != nil {
		t.Fatal(err)
	}
	if p.nslots != 1 {
		t.Errorf("slots = %d, want 1 (X)", p.nslots)
	}
}

// TestPlanReuseObservesLiveData verifies a compiled plan reads the
// instance each run passes: tuples inserted after compilation appear in
// later runs over the same database, a run over a snapshot taken before
// the insert reads only the snapshot's rows, and a run over an instance
// without the plan's predicate panics.
func TestPlanReuseObservesLiveData(t *testing.T) {
	db := edgeDB(t, [][2]int64{{1, 2}})
	q := cq.MustParse("Q(X, Y) :- E(X, Y)")
	p, err := Compile(db, q)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Eval(db, nil); len(got) != 1 {
		t.Fatalf("first run: %d tuples", len(got))
	}
	before := db.Snapshot()
	if err := db.Insert("E", value.Int(7), value.Int(8)); err != nil {
		t.Fatal(err)
	}
	if got := p.Eval(db, nil); len(got) != 2 {
		t.Fatalf("after insert: %d tuples, want 2", len(got))
	}
	if got := p.Eval(before, nil); len(got) != 1 {
		t.Fatalf("over the earlier snapshot: %d tuples, want 1", len(got))
	}
	defer func() {
		if recover() == nil {
			t.Error("a run over an instance without E did not panic")
		}
	}()
	p.Eval(Relations{}, nil)
}

// TestPlanRunIsAllocationFree pins the tentpole property: a warm plan
// counts bindings without allocating per binding (the interpreter paid
// maps, clones and Key() strings here). The plan reads a snapshot, as
// every cite's plans do, so its steps walk columnar blocks.
func TestPlanRunIsAllocationFree(t *testing.T) {
	edges := make([][2]int64, 0, 200)
	for i := int64(0); i < 200; i++ {
		edges = append(edges, [2]int64{i % 20, (i + 1) % 20})
	}
	snap := edgeDB(t, edges).Snapshot()
	p, err := Compile(snap, cq.MustParse("Q(X, Z) :- E(X, Y), E(Y, Z)"))
	if err != nil {
		t.Fatal(err)
	}
	p.CountBindings(snap, nil) // warm the pooled run state and candidate buffers
	allocs := testing.AllocsPerRun(20, func() {
		if p.CountBindings(snap, nil) == 0 {
			t.Fatal("no bindings")
		}
	})
	// One pool Get/Put round trip may allocate when the pool was drained by
	// GC; anything beyond a few indicates a per-binding allocation crept in.
	if allocs > 4 {
		t.Errorf("CountBindings allocates %.1f objects per run on a warm plan", allocs)
	}
}

func TestPlanConstantQuery(t *testing.T) {
	db := edgeDB(t, nil)
	q := cq.MustParse("C('k', 5) :- true")
	p, err := Compile(db, q)
	if err != nil {
		t.Fatal(err)
	}
	args := Args(nil, q)
	if got := p.Eval(db, args); len(got) != 1 || got[0].String() != "('k', 5)" {
		t.Fatalf("constant plan: %v", rows(got))
	}
	if n := p.CountBindings(db, args); n != 1 {
		t.Errorf("constant CountBindings = %d", n)
	}
	if !p.HasBinding(db, args) {
		t.Error("constant HasBinding = false")
	}
	ann := RunAnnotated[int](p, db, args, semiring.Natural{}, func(string, storage.Tuple) int { return 1 })
	if len(ann) != 1 || ann[0].Annotation != 1 {
		t.Fatalf("constant annotated: %v", ann)
	}
}

func TestHasBindingStopsEarly(t *testing.T) {
	db := edgeDB(t, [][2]int64{{1, 2}, {2, 3}, {3, 4}})
	ok, err := HasBinding(db, cq.MustParse("Q(X) :- E(X, Y)"))
	if err != nil || !ok {
		t.Fatalf("HasBinding = %v, %v", ok, err)
	}
	ok, err = HasBinding(db, cq.MustParse("Q(X) :- E(X, 99)"))
	if err != nil || ok {
		t.Fatalf("HasBinding on empty answer = %v, %v", ok, err)
	}
}

func TestTupleIndex(t *testing.T) {
	var ix TupleIndex
	a := storage.Tuple{value.Int(1), value.String("x")}
	b := storage.Tuple{value.Int(2), value.String("y")}
	if id, added := ix.Add(a); id != 0 || !added {
		t.Fatalf("first add: id=%d added=%v", id, added)
	}
	if id, added := ix.Add(b); id != 1 || !added {
		t.Fatalf("second add: id=%d added=%v", id, added)
	}
	if id, added := ix.Add(a.Clone()); id != 0 || added {
		t.Fatalf("duplicate add: id=%d added=%v", id, added)
	}
	if id, ok := ix.Get(b); !ok || id != 1 {
		t.Fatalf("Get: id=%d ok=%v", id, ok)
	}
	if _, ok := ix.Get(storage.Tuple{value.Int(9), value.String("z")}); ok {
		t.Fatal("Get of absent tuple succeeded")
	}
	if ix.Len() != 2 {
		t.Fatalf("Len = %d", ix.Len())
	}
	// Add must clone reused buffers: mutating the argument afterwards must
	// not corrupt the stored tuple.
	buf := storage.Tuple{value.Int(3), value.String("w")}
	ix.Add(buf)
	buf[0] = value.Int(99)
	if id, ok := ix.Get(storage.Tuple{value.Int(3), value.String("w")}); !ok || id != 2 {
		t.Fatalf("stored tuple aliased the caller's buffer (id=%d ok=%v)", id, ok)
	}
}

func TestTupleIndexGrowth(t *testing.T) {
	var ix TupleIndex
	const n = 500
	for i := 0; i < n; i++ {
		if _, added := ix.Add(storage.Tuple{value.Int(int64(i))}); !added {
			t.Fatalf("tuple %d reported duplicate", i)
		}
	}
	if ix.Len() != n {
		t.Fatalf("Len = %d, want %d", ix.Len(), n)
	}
	for i := 0; i < n; i++ {
		if id, ok := ix.Get(storage.Tuple{value.Int(int64(i))}); !ok || id != i {
			t.Fatalf("tuple %d: id=%d ok=%v after growth", i, id, ok)
		}
	}
}

// TestPlanIntraAtomRepeatWithProbe covers the access-path corner where an
// atom has both a probeable bound column and an intra-atom repeated fresh
// variable.
func TestPlanIntraAtomRepeatWithProbe(t *testing.T) {
	db := edgeDB(t, [][2]int64{{1, 1}, {1, 2}, {2, 2}, {3, 1}})
	db.BuildIndexes()
	// X joins across atoms; E(X, X) filters to self-loops.
	got, err := Eval(db, cq.MustParse("Q(X, Y) :- E(Y, X), E(X, X)"))
	if err != nil {
		t.Fatal(err)
	}
	// Self-loops: X in {1, 2}; pairs (X, Y) with E(Y, X): X=1: Y in {1, 3};
	// X=2: Y in {1, 2}.
	if len(got) != 4 {
		t.Fatalf("got %v", rows(got))
	}
}
