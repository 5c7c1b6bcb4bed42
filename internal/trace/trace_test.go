package trace

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilSafety(t *testing.T) {
	// A context without a trace must make every operation a no-op.
	ctx := context.Background()
	if sp := SpanFromContext(ctx); sp != nil {
		t.Fatalf("expected nil span, got %v", sp)
	}
	ctx2, sp := StartSpan(ctx, "stage")
	if sp != nil {
		t.Fatalf("expected nil child span")
	}
	if ctx2 != ctx {
		t.Fatalf("context must be unchanged without a trace")
	}
	// All nil-span methods must not panic.
	sp.End()
	sp.Add("n", 3)
	sp.Set("k", "v")
	sp.StartChild("x").End()
	if sp.Duration() != 0 || sp.Name() != "" {
		t.Fatalf("nil span must be zero-valued")
	}
	var tr *Trace
	if tr.Finish() != 0 || tr.Root() != nil || tr.Stages() != nil {
		t.Fatalf("nil trace must be zero-valued")
	}
	var ring *Ring
	ring.Add(nil)
	if ring.Len() != 0 || ring.Snapshot(0) != nil {
		t.Fatalf("nil ring must be empty")
	}
	var sl *SlowLogger
	sl.Log(SlowEntry{})
}

func TestSpanTree(t *testing.T) {
	tr := New("cite")
	if len(tr.ID) != 16 {
		t.Fatalf("trace ID %q: want 16 hex chars", tr.ID)
	}
	ctx := NewContext(context.Background(), tr)
	if FromContext(ctx) != tr {
		t.Fatalf("FromContext lost the trace")
	}

	ctx1, parse := StartSpan(ctx, "parse")
	time.Sleep(time.Millisecond)
	parse.End()
	// ctx1's current span is parse; a sibling starts from ctx, not ctx1.
	_, rw := StartSpan(ctx, "rewrite")
	rw.Add("rewritings_found", 2)
	rw.Add("rewritings_found", 1)
	rw.Set("method", "mcd")
	_, inner := StartSpan(ctx1, "nested-under-parse")
	inner.End()
	rw.End()
	tr.Finish()

	snap := tr.Snapshot()
	if snap.ID != tr.ID || snap.Root.Name != "cite" {
		t.Fatalf("bad snapshot root: %+v", snap)
	}
	byName := map[string]SpanSnapshot{}
	for _, c := range snap.Root.Children {
		byName[c.Name] = c
	}
	if _, ok := byName["parse"]; !ok {
		t.Fatalf("missing parse child: %+v", snap.Root)
	}
	if byName["parse"].DurUS <= 0 {
		t.Fatalf("parse duration must be positive, got %d", byName["parse"].DurUS)
	}
	if got := byName["rewrite"].Attrs["rewritings_found"]; got != int64(3) {
		t.Fatalf("Add must accumulate: got %v", got)
	}
	if got := byName["rewrite"].Attrs["method"]; got != "mcd" {
		t.Fatalf("Set lost value: got %v", got)
	}
	if len(byName["parse"].Children) != 1 || byName["parse"].Children[0].Name != "nested-under-parse" {
		t.Fatalf("nesting must follow the context: %+v", byName["parse"])
	}

	names := tr.StageNames()
	want := []string{"cite", "nested-under-parse", "parse", "rewrite"}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Fatalf("stage names %v, want %v", names, want)
	}
}

func TestSpanEndIdempotent(t *testing.T) {
	tr := New("r")
	sp := tr.Root().StartChild("s")
	time.Sleep(time.Millisecond)
	sp.End()
	d := sp.Duration()
	if d <= 0 {
		t.Fatal("duration must be positive after End")
	}
	time.Sleep(2 * time.Millisecond)
	sp.End()
	if sp.Duration() != d {
		t.Fatalf("second End must not change the duration: %v -> %v", d, sp.Duration())
	}
}

func TestConcurrentSpansAndSnapshot(t *testing.T) {
	// Sibling spans created from many goroutines while another goroutine
	// snapshots continuously: the -race build is the real assertion.
	tr := New("root")
	ctx := NewContext(context.Background(), tr)
	stop := make(chan struct{})
	var snapWG sync.WaitGroup
	snapWG.Add(1)
	go func() {
		defer snapWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
				tr.Snapshot()
				tr.Stages()
			}
		}
	}()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				_, sp := StartSpan(ctx, "branch")
				sp.Add("n", 1)
				sp.End()
			}
		}()
	}
	wg.Wait()
	close(stop)
	snapWG.Wait()
	tr.Finish()
	snap := tr.Snapshot()
	if len(snap.Root.Children) != 8*200 {
		t.Fatalf("got %d children, want %d", len(snap.Root.Children), 8*200)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram([]float64{0.001, 0.01, 0.1})
	h.Observe(500 * time.Microsecond) // <= 0.001
	h.Observe(2 * time.Millisecond)   // <= 0.01
	h.Observe(3 * time.Millisecond)   // <= 0.01
	h.Observe(time.Second)            // +Inf
	s := h.Snapshot()
	if s.Count != 4 {
		t.Fatalf("count %d, want 4", s.Count)
	}
	wantCum := []int64{1, 3, 3, 4}
	for i, w := range wantCum {
		if s.Cumulative[i] != w {
			t.Fatalf("cumulative[%d] = %d, want %d (%v)", i, s.Cumulative[i], w, s.Cumulative)
		}
	}
	wantSum := (500*time.Microsecond + 5*time.Millisecond + time.Second).Seconds()
	if diff := s.Sum - wantSum; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("sum %g, want %g", s.Sum, wantSum)
	}
}

func TestHistogramVec(t *testing.T) {
	v := NewHistogramVec(nil)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				v.Observe("cite", time.Millisecond)
				v.Observe("commit", time.Millisecond)
			}
		}()
	}
	wg.Wait()
	if got := v.Labels(); strings.Join(got, ",") != "cite,commit" {
		t.Fatalf("labels %v", got)
	}
	if n := v.Get("cite").Snapshot().Count; n != 800 {
		t.Fatalf("cite count %d, want 800", n)
	}
	if v.Get("nope") != nil {
		t.Fatal("unknown label must be nil")
	}
}

func TestRing(t *testing.T) {
	r := NewRing(3)
	var ids []string
	for i := 0; i < 5; i++ {
		tr := New("t")
		tr.Finish()
		r.Add(tr)
		ids = append(ids, tr.ID)
	}
	if r.Len() != 3 {
		t.Fatalf("len %d, want 3", r.Len())
	}
	snaps := r.Snapshot(0)
	// Most recent first: ids[4], ids[3], ids[2].
	for i, want := range []string{ids[4], ids[3], ids[2]} {
		if snaps[i].ID != want {
			t.Fatalf("snapshot[%d] = %s, want %s", i, snaps[i].ID, want)
		}
	}
	if got := r.Snapshot(1); len(got) != 1 || got[0].ID != ids[4] {
		t.Fatalf("limited snapshot wrong: %+v", got)
	}
}

func TestSlowLogger(t *testing.T) {
	var buf bytes.Buffer
	l := NewSlowLogger(&buf)
	tr := New("cite")
	_, sp := StartSpan(NewContext(context.Background(), tr), "parse")
	sp.End()
	tr.Finish()
	l.Log(SlowEntry{
		Time:        time.Now(),
		TraceID:     tr.ID,
		Endpoint:    "cite",
		DurUS:       tr.Duration().Microseconds(),
		ThresholdUS: 1,
		Queries:     []string{"Q(x) :- R(x)"},
		Spans:       tr.Root().Snapshot(),
	})
	line := buf.String()
	if !strings.HasSuffix(line, "\n") {
		t.Fatalf("entry must be a full line: %q", line)
	}
	var e SlowEntry
	if err := json.Unmarshal([]byte(line), &e); err != nil {
		t.Fatalf("line is not JSON: %v\n%s", err, line)
	}
	if e.TraceID != tr.ID || e.Spans.Name != "cite" || len(e.Spans.Children) != 1 {
		t.Fatalf("bad entry: %+v", e)
	}
}

// TestHitTraceAllocations pins the cost of tracing a /cite cache hit:
// its six spans live in the trace's slab, their attributes inline and
// unboxed, and walks copy nothing, so the whole traced hit allocates
// twice — the trace and its ID string.
func TestHitTraceAllocations(t *testing.T) {
	var sink time.Duration
	allocs := testing.AllocsPerRun(100, func() {
		tr := New("cite")
		root := tr.Root()
		for _, name := range []string{"validate", "decode", "admission", "cache", "encode"} {
			sp := root.StartChild(name)
			sp.Add("bytes", 4096)
			sp.End()
		}
		tr.Finish()
		root.Visit(func(s *Span) { sink += s.Duration() + time.Duration(s.AttrInt("bytes")) })
	})
	if allocs != 2 {
		t.Errorf("a traced hit allocates %v times, want 2", allocs)
	}
	_ = sink
}

// TestSlabOverflow checks that spans past the slab fall back to the
// heap and keep their place in the tree.
func TestSlabOverflow(t *testing.T) {
	tr := New("cite")
	var want []string
	for i := range 3 * slabSpans {
		name := "s" + strings.Repeat("x", i)
		sp := tr.Root().StartChild(name)
		sp.Set("n", int64(i))
		sp.Add("n", 1)
		sp.End()
		want = append(want, name)
	}
	tr.Finish()
	snap := tr.Snapshot()
	if len(snap.Root.Children) != len(want) {
		t.Fatalf("%d children, want %d", len(snap.Root.Children), len(want))
	}
	for i, c := range snap.Root.Children {
		if c.Name != want[i] || c.Attrs["n"] != int64(i+1) {
			t.Errorf("child %d: %s n=%v, want %s n=%d", i, c.Name, c.Attrs["n"], want[i], i+1)
		}
	}
}
