package datacitation_test

// Concurrency tests of the serving engine: a -race stress test hammering
// System.Cite from many goroutines while commits and inserts interleave,
// and determinism tests asserting that a batched CiteAll, whose members
// run on a worker pool, returns exactly what one-at-a-time cites return.

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	datacitation "repro"
)

// TestConcurrentCiteCommitStress hammers Cite from many goroutines while a
// writer interleaves inserts and commits. Run under -race (the CI does);
// the assertion here is only that no call fails and no citation is empty —
// the engine's contract is freedom from data races and torn cache states,
// not a fixed answer while the database is in motion.
func TestConcurrentCiteCommitStress(t *testing.T) {
	sys := buildSystem(t)
	sys.Commit("base")

	const (
		citers     = 8
		iterations = 40
		commits    = 15
	)
	queries := []string{
		"Q(FID, FName) :- Family(FID, FName, Desc)",
		"Q(FName) :- Family(FID, FName, Desc)",
		"Q(FName, Desc) :- Family(FID, FName, Desc)",
	}

	var wg sync.WaitGroup
	errc := make(chan error, citers+1)
	var stop atomic.Bool
	for w := 0; w < citers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iterations && !stop.Load(); i++ {
				cite, err := sys.Cite(queries[(w+i)%len(queries)])
				if err != nil {
					errc <- fmt.Errorf("citer %d iter %d: %w", w, i, err)
					return
				}
				if len(cite.Result.Tuples) == 0 {
					errc <- fmt.Errorf("citer %d iter %d: empty citation", w, i)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		db := sys.Database()
		for i := 0; i < commits; i++ {
			if err := db.Insert("Family",
				datacitation.Int(int64(100+i)),
				datacitation.String(fmt.Sprintf("Stress %d", i)),
				datacitation.String("S")); err != nil {
				errc <- fmt.Errorf("insert %d: %w", i, err)
				return
			}
			if err := db.Insert("Committee",
				datacitation.Int(int64(100+i)),
				datacitation.String("Carol")); err != nil {
				errc <- fmt.Errorf("insert committee %d: %w", i, err)
				return
			}
			sys.Commit(fmt.Sprintf("stress %d", i))
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		stop.Store(true)
		t.Error(err)
	}
}

// TestCiteAllMatchesSequential asserts the batched entry point returns, in
// order, exactly what one-at-a-time Cite returns.
func TestCiteAllMatchesSequential(t *testing.T) {
	sys := buildSystem(t)
	sys.Commit("base")
	queries := []string{
		"Q(FID, FName) :- Family(FID, FName, Desc)",
		"Q(FName) :- Family(FID, FName, Desc)",
		"Q(FID, FName) :- Family(FID, FName, Desc)",
		"Q(FName, Desc) :- Family(FID, FName, Desc)",
	}
	batch, err := sys.CiteAll(queries)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != len(queries) {
		t.Fatalf("batch size %d, want %d", len(batch), len(queries))
	}
	for i, src := range queries {
		one, err := sys.Cite(src)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := batch[i].Result.Expr().String(), one.Result.Expr().String(); got != want {
			t.Errorf("query %d: batch expression %s, sequential %s", i, got, want)
		}
		if got, want := batch[i].Text(), one.Text(); got != want {
			t.Errorf("query %d: batch text %q, sequential %q", i, got, want)
		}
	}
}

// TestCiteAllErrorPositional checks the error contract: the first failing
// query (in batch order) is reported with its index.
func TestCiteAllErrorPositional(t *testing.T) {
	sys := buildSystem(t)
	out, err := sys.CiteAll([]string{
		"Q(FID, FName) :- Family(FID, FName, Desc)",
		"Q(FID, PName) :- Committee(FID, PName)",
	})
	if err == nil {
		t.Fatal("want error for uncoverable query")
	}
	if !errors.Is(err, datacitation.ErrNoRewriting) {
		t.Fatalf("error %v, want ErrNoRewriting", err)
	}
	if out[1] != nil {
		t.Error("failed position must be nil")
	}
	if out[0] == nil || len(out[0].Result.Tuples) == 0 {
		t.Error("successful position must carry its citation")
	}
}

// TestCommitInvalidatesCaches asserts the Commit barrier: after inserting
// directly into the head and committing, the next Cite sees the new tuple
// (stale materializations are dropped atomically).
func TestCommitInvalidatesCaches(t *testing.T) {
	sys := buildSystem(t)
	q := "Q(FID, FName) :- Family(FID, FName, Desc)"
	before, err := sys.Cite(q)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Database().Insert("Family",
		datacitation.Int(99), datacitation.String("Fresh"), datacitation.String("F")); err != nil {
		t.Fatal(err)
	}
	sys.Commit("after insert")
	after, err := sys.Cite(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(after.Result.Tuples) != len(before.Result.Tuples)+1 {
		t.Fatalf("after commit: %d tuples, want %d",
			len(after.Result.Tuples), len(before.Result.Tuples)+1)
	}
	if after.Pin == nil || after.Pin.Version != 1 {
		t.Fatalf("pin %+v, want version 1", after.Pin)
	}
}
