package datacitation_test

// Tests of the context-first request API: per-call CiteOptions,
// time-travel citations at committed versions, typed sentinel errors,
// and cooperative cancellation through the engine — including the
// acceptance criteria of the API redesign: a time-travel cite at version
// v is byte-identical to the citation generated while v was the head, a
// concurrent Commit neither blocks it nor invalidates its cache entries,
// and canceling ctx mid-cite returns ctx.Err() well under any request
// deadline.

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sync"
	"testing"
	"time"

	datacitation "repro"
)

// paperSystem loads testdata/paper.dcs (views defined, nothing committed).
func paperSystem(t *testing.T) *datacitation.System {
	t.Helper()
	raw, err := os.ReadFile("testdata/paper.dcs")
	if err != nil {
		t.Fatal(err)
	}
	sys, err := datacitation.LoadSpec(string(raw))
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

const familyQuery = "Q(FName) :- Family(FID, FName, Desc)"

// grow mutates the head database so the next commit differs. It is
// goroutine-safe (no *testing.T): races use it from committer goroutines.
func grow(sys *datacitation.System, fid int) error {
	db := sys.Database()
	if err := db.Insert("Family", datacitation.Int(int64(fid)),
		datacitation.String(fmt.Sprintf("Fam%d", fid)),
		datacitation.String("grown")); err != nil {
		return err
	}
	return db.Insert("Committee", datacitation.Int(int64(fid)), datacitation.String("Zoe"))
}

// growFamily is grow for the test goroutine.
func growFamily(t *testing.T, sys *datacitation.System, fid int) {
	t.Helper()
	if err := grow(sys, fid); err != nil {
		t.Fatal(err)
	}
}

// TestAtVersionPinEquality is the fixity acceptance test: on a 3-commit
// store, CiteContext(ctx, q, AtVersion(1)) must reproduce — byte for
// byte, pin and record alike — the citation generated while version 1
// was the head.
func TestAtVersionPinEquality(t *testing.T) {
	sys := paperSystem(t)
	sys.Commit("v1")
	then, err := sys.Cite(familyQuery)
	if err != nil {
		t.Fatal(err)
	}
	if then.Pin == nil || then.Pin.Version != 1 {
		t.Fatalf("head cite at v1 carries pin %+v", then.Pin)
	}

	growFamily(t, sys, 21)
	sys.Commit("v2")
	growFamily(t, sys, 22)
	sys.Commit("v3")

	head, err := sys.Cite(familyQuery)
	if err != nil {
		t.Fatal(err)
	}
	if head.Pin.Version != 3 || head.Pin.Digest == then.Pin.Digest {
		t.Fatalf("head should have moved on: pin %+v", head.Pin)
	}

	travel, err := sys.CiteContext(context.Background(), familyQuery, datacitation.AtVersion(1))
	if err != nil {
		t.Fatal(err)
	}
	if travel.Pin == nil {
		t.Fatal("time-travel cite carries no pin")
	}
	if got, want := travel.Pin.String(), then.Pin.String(); got != want {
		t.Errorf("pin not byte-identical:\n got %s\nwant %s", got, want)
	}
	if got, want := travel.Text(), then.Text(); got != want {
		t.Errorf("rendered citation not byte-identical:\n got %s\nwant %s", got, want)
	}
	gotJSON, err := travel.JSON()
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := then.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if gotJSON != wantJSON {
		t.Errorf("record JSON not byte-identical:\n got %s\nwant %s", gotJSON, wantJSON)
	}
}

// TestAtVersionRacingCommit runs time-travel cites against version 1
// while the head is mutated and committed concurrently: every versioned
// cite must succeed with the identical pin (run under -race; versioned
// cites take no engine lock, so the commits cannot block them).
func TestAtVersionRacingCommit(t *testing.T) {
	sys := paperSystem(t)
	sys.Commit("v1")
	want, err := sys.CiteContext(context.Background(), familyQuery, datacitation.AtVersion(1))
	if err != nil {
		t.Fatal(err)
	}

	const citers = 4
	const citesEach = 25
	var citeWG sync.WaitGroup
	errs := make(chan error, citers+1)
	for w := 0; w < citers; w++ {
		citeWG.Add(1)
		go func() {
			defer citeWG.Done()
			for i := 0; i < citesEach; i++ {
				c, err := sys.CiteContext(context.Background(), familyQuery, datacitation.AtVersion(1))
				if err != nil {
					errs <- err
					return
				}
				if c.Pin.String() != want.Pin.String() {
					errs <- fmt.Errorf("pin drifted under commits:\n got %s\nwant %s", c.Pin, want.Pin)
					return
				}
			}
		}()
	}
	// Commit continuously while the citers run.
	stop := make(chan struct{})
	var commitWG sync.WaitGroup
	commitWG.Add(1)
	go func() {
		defer commitWG.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := grow(sys, 100+i); err != nil {
				errs <- err
				return
			}
			sys.Commit(fmt.Sprintf("churn %d", i))
		}
	}()
	citeWG.Wait()
	close(stop)
	commitWG.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
}

// heavySystem builds a system whose citation requires a large three-way
// self-join enumeration (|A|^3 bindings), slow enough that a mid-flight
// cancellation always lands before the enumeration completes.
func heavySystem(t *testing.T, n int) *datacitation.System {
	t.Helper()
	s := datacitation.NewSchema()
	rs, err := datacitation.NewRelationSchema("A", []datacitation.Attribute{
		{Name: "X", Kind: datacitation.KindInt},
	})
	if err != nil {
		t.Fatal(err)
	}
	s.MustAdd(rs)
	sys := datacitation.NewSystem(s)
	db := sys.Database()
	for i := 0; i < n; i++ {
		if err := db.Insert("A", datacitation.Int(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	db.BuildIndexes()
	if err := sys.DefineView("V(X) :- A(X)",
		datacitation.NewRecord(datacitation.FieldDatabase, "heavy")); err != nil {
		t.Fatal(err)
	}
	return sys
}

const heavyQuery = "Q(X, Y, Z) :- A(X), A(Y), A(Z)"

// testCancellation cancels a cite mid-enumeration and asserts it aborts
// with ctx.Err() promptly — well under the multi-second full run.
func testCancellation(t *testing.T, opts ...datacitation.CiteOption) {
	sys := heavySystem(t, 150) // 150^3 ≈ 3.4M bindings — hundreds of ms at least
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := sys.CiteContext(ctx, heavyQuery, opts...)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The full enumeration takes far longer; a canceled one must return
	// within its poll interval (generous bound for loaded CI machines).
	if elapsed > 5*time.Second {
		t.Errorf("cancellation took %v", elapsed)
	}
}

// A single cite runs on its caller's goroutine whatever the batch bound
// says; cancellation must behave the same under either setting.

func TestCiteContextCancellationSequential(t *testing.T) {
	testCancellation(t, datacitation.WithParallelism(1))
}

func TestCiteContextCancellationParallel(t *testing.T) {
	testCancellation(t, datacitation.WithParallelism(4))
}

// TestCiteContextPreCanceled: an already-canceled context never reaches
// the engine.
func TestCiteContextPreCanceled(t *testing.T) {
	sys := paperSystem(t)
	sys.Commit("v1")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sys.CiteContext(ctx, familyQuery); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if _, errs := sys.CiteEachContext(ctx, []string{familyQuery}); !errors.Is(errs[0], context.Canceled) {
		t.Fatalf("batch err = %v, want context.Canceled", errs[0])
	}
}

// TestSentinelErrors pins the typed error taxonomy to errors.Is.
func TestSentinelErrors(t *testing.T) {
	sys := paperSystem(t)
	sys.Commit("v1")

	if _, err := sys.Cite("((("); !errors.Is(err, datacitation.ErrBadQuery) {
		t.Errorf("parse failure = %v, want ErrBadQuery", err)
	}
	if _, err := sys.CiteContext(context.Background(), familyQuery,
		datacitation.AtVersion(42)); !errors.Is(err, datacitation.ErrUnknownVersion) {
		t.Errorf("unknown version = %v, want ErrUnknownVersion", err)
	}
	q := datacitation.MustParseQuery("Q(X) :- Nowhere(X)")
	if _, _, err := sys.Store().Execute(q, 1); !errors.Is(err, datacitation.ErrUnknownRelation) {
		t.Errorf("unknown relation = %v, want ErrUnknownRelation", err)
	}
	if _, err := sys.Cite("Q(X) :- Nowhere(X)"); !errors.Is(err, datacitation.ErrNoRewriting) {
		t.Errorf("uncoverable query = %v, want ErrNoRewriting", err)
	}
}

// TestCiteOptions covers the remaining per-call knobs: WithoutFixityPin
// skips the pin, WithPolicy overrides the default for one call without
// touching it, and batch options apply to every member.
func TestCiteOptions(t *testing.T) {
	sys := paperSystem(t)
	sys.Commit("v1")

	unpinned, err := sys.CiteContext(context.Background(), familyQuery, datacitation.WithoutFixityPin())
	if err != nil {
		t.Fatal(err)
	}
	if unpinned.Pin != nil {
		t.Errorf("WithoutFixityPin still pinned: %+v", unpinned.Pin)
	}

	// Per-call policy: AllBranches combines every rewriting; the default
	// (MinSize) stays in force for option-free calls afterwards.
	all := datacitation.DefaultPolicy()
	all.AltR = datacitation.SelectAllBranches
	if _, err := sys.CiteContext(context.Background(), familyQuery, datacitation.WithPolicy(all)); err != nil {
		t.Fatal(err)
	}
	epochBefore := sys.Version()
	def, err := sys.Cite(familyQuery)
	if err != nil {
		t.Fatal(err)
	}
	if def.Result.Record == nil {
		t.Fatal("default-policy cite lost its record")
	}
	if sys.Version() != epochBefore {
		t.Error("per-call WithPolicy must not bump the epoch")
	}

	// Batch with AtVersion: every member pins to the requested version.
	growFamily(t, sys, 31)
	sys.Commit("v2")
	out, errs := sys.CiteEachContext(context.Background(),
		[]string{familyQuery, "Q2(Text) :- FamilyIntro(FID, Text)"},
		datacitation.AtVersion(1))
	for i, err := range errs {
		if err != nil {
			t.Fatalf("batch member %d: %v", i, err)
		}
		if out[i].Pin == nil || out[i].Pin.Version != 1 {
			t.Errorf("batch member %d pinned to %+v, want version 1", i, out[i].Pin)
		}
	}
}

// TestWithParallelismDoesNotBumpEpoch pins the documented Version() rule:
// SetPolicyNamed bumps (results can change), a WithParallelism cite does
// not (scheduling only).
func TestWithParallelismDoesNotBumpEpoch(t *testing.T) {
	sys := paperSystem(t)
	before := sys.Version()
	if _, err := sys.CiteContext(context.Background(), familyQuery, datacitation.WithParallelism(2)); err != nil {
		t.Fatal(err)
	}
	if sys.Version() != before {
		t.Error("a WithParallelism cite bumped the epoch")
	}
	if err := sys.SetPolicyNamed("minsize"); err != nil {
		t.Fatal(err)
	}
	if sys.Version() != before+1 {
		t.Error("SetPolicyNamed did not bump the epoch")
	}
}

// TestConfigVersionRules pins ConfigVersion's bumping rules: SetPolicyNamed
// and DefineView move it (they can change what a citation of an already
// committed version contains), Commit does not (it cannot).
func TestConfigVersionRules(t *testing.T) {
	sys := paperSystem(t)
	base := sys.ConfigVersion()
	sys.Commit("v1")
	if got := sys.ConfigVersion(); got != base {
		t.Errorf("Commit moved ConfigVersion %d -> %d", base, got)
	}
	if err := sys.SetPolicyNamed("minsize"); err != nil {
		t.Fatal(err)
	}
	if got := sys.ConfigVersion(); got != base+1 {
		t.Errorf("SetPolicyNamed: ConfigVersion = %d, want %d", got, base+1)
	}
	if err := sys.DefineView("Extra(FID, Text) :- FamilyIntro(FID, Text)",
		datacitation.NewRecord(datacitation.FieldDatabase, "extra")); err != nil {
		t.Fatal(err)
	}
	if got := sys.ConfigVersion(); got != base+2 {
		t.Errorf("DefineView: ConfigVersion = %d, want %d", got, base+2)
	}
}
