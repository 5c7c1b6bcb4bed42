package trace

import (
	"context"
	"sync"
	"testing"
	"time"
)

func TestVisitAndAttrs(t *testing.T) {
	tr := New("cite")
	ctx := NewContext(context.Background(), tr)
	ctx1, eval := StartSpan(ctx, "eval")
	eval.Add("tuples_examined", 7)
	eval.Add("tuples_examined", 3)
	eval.Set("branches", 4) // Set stores an int, not int64
	_, br := StartSpan(ctx1, "branch")
	br.Set("cache", "hit")
	br.Add("tuples_examined", 5)
	br.End()
	eval.End()
	tr.Finish()

	if v, ok := eval.Attr("cache"); ok {
		t.Fatalf("absent attr must report !ok, got %v", v)
	}
	if got := eval.AttrInt("tuples_examined"); got != 10 {
		t.Fatalf("AttrInt(tuples_examined) = %d, want 10", got)
	}
	if got := eval.AttrInt("branches"); got != 4 {
		t.Fatalf("AttrInt must coerce int: got %d, want 4", got)
	}
	if v, _ := br.Attr("cache"); v != "hit" {
		t.Fatalf("Attr(cache) = %v, want hit", v)
	}
	if got := br.AttrInt("cache"); got != 0 {
		t.Fatalf("AttrInt on a string attr must read 0, got %d", got)
	}

	// Preorder walk: root, eval, branch — and a summed counter matches
	// what the qstats extraction expects.
	var names []string
	var tuples int64
	tr.Root().Visit(func(s *Span) {
		names = append(names, s.Name())
		tuples += s.AttrInt("tuples_examined")
	})
	want := []string{"cite", "eval", "branch"}
	if len(names) != len(want) {
		t.Fatalf("visited %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("visited %v, want %v", names, want)
		}
	}
	if tuples != 15 {
		t.Fatalf("summed tuples %d, want 15", tuples)
	}

	// Nil safety.
	var nilSpan *Span
	nilSpan.Visit(func(*Span) { t.Fatal("nil span must not visit") })
	if _, ok := nilSpan.Attr("x"); ok {
		t.Fatal("nil span must have no attrs")
	}
	if nilSpan.AttrInt("x") != 0 {
		t.Fatal("nil span AttrInt must be 0")
	}
}

// TestVisitConcurrent races Visit against a detached computation still
// appending children and attributes — the walk must see a consistent
// prefix without tripping the race detector.
func TestVisitConcurrent(t *testing.T) {
	tr := New("cite")
	root := tr.Root()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				sp := root.StartChild("branch")
				sp.Add("tuples_examined", 1)
				sp.End()
			}
		}()
	}
	for i := 0; i < 50; i++ {
		n := 0
		root.Visit(func(s *Span) { n += int(s.AttrInt("tuples_examined")) })
		_ = n
	}
	close(stop)
	wg.Wait()
	tr.Finish()
	var ended int64
	root.Visit(func(s *Span) {
		if s.Name() == "branch" && s.Duration() > 0 {
			ended++
		}
	})
	var total int64
	root.Visit(func(s *Span) { total += s.AttrInt("tuples_examined") })
	if total != ended {
		t.Fatalf("tuples %d != ended branches %d", total, ended)
	}
}

// TestHistogramVecConcurrent exercises the copy-on-write label-table
// swap under racing Observe/Snapshot/Labels: new labels force table
// copies while readers keep loading the old pointer. Run with -race.
func TestHistogramVecConcurrent(t *testing.T) {
	v := NewHistogramVec(nil)
	labels := []string{"parse", "rewrite", "eval", "views", "plan", "branch", "policy", "encode"}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				// Each goroutine leads with its own label so inserts (the
				// COW path) race other goroutines' hot-path observations.
				v.Observe(labels[(i+j)%len(labels)], time.Millisecond)
			}
		}(i)
	}
	var snapWG sync.WaitGroup
	snapWG.Add(1)
	go func() {
		defer snapWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, l := range v.Labels() {
				if h := v.Get(l); h != nil {
					h.Snapshot()
				}
			}
		}
	}()
	wg.Wait()
	close(stop)
	snapWG.Wait()

	var total int64
	for _, l := range v.Labels() {
		total += v.Get(l).Snapshot().Count
	}
	if total != 8*500 {
		t.Fatalf("total observations %d, want %d", total, 8*500)
	}
}
