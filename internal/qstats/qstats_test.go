package qstats

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/cq"
	"repro/internal/trace"
)

func TestStoreAccumulates(t *testing.T) {
	s := NewStore(8)
	for i := 0; i < 3; i++ {
		s.Observe("Q(v0) :- R($1, v0)", uint64(i%2), Costs{
			Calls:          1,
			WallNS:         int64(time.Millisecond),
			TuplesExamined: 10,
			ResultMisses:   1,
		})
	}
	st, rows := s.Snapshot("", 0)
	if st.Tracked != 1 || st.Observations != 3 || st.Evicted != 0 {
		t.Fatalf("stats %+v", st)
	}
	if len(rows) != 1 {
		t.Fatalf("rows %d, want 1", len(rows))
	}
	r := rows[0]
	if r.Calls != 3 || r.TuplesExamined != 30 || r.ResultMisses != 3 {
		t.Fatalf("row %+v", r)
	}
	if r.DistinctConsts != 2 {
		t.Fatalf("distinct consts %d, want 2", r.DistinctConsts)
	}
	if r.TotalMS < 2.9 || r.TotalMS > 3.1 {
		t.Fatalf("total ms %g, want ~3", r.TotalMS)
	}
	if r.MeanMS < 0.9 || r.MeanMS > 1.1 {
		t.Fatalf("mean ms %g, want ~1", r.MeanMS)
	}
	if r.P50MS <= 0 || r.P99MS < r.P50MS {
		t.Fatalf("quantiles p50=%g p99=%g", r.P50MS, r.P99MS)
	}
}

func TestStoreSpaceSavingEviction(t *testing.T) {
	s := NewStore(2)
	heavy := Costs{Calls: 1}
	s.Observe("A", 0, heavy)
	s.Observe("A", 0, heavy)
	s.Observe("A", 0, heavy)
	s.Observe("B", 0, heavy)
	// C arrives at capacity: B (1 call) is the minimum and is displaced;
	// A (3 calls) must survive.
	s.Observe("C", 0, heavy)
	st, rows := s.Snapshot(SortCalls, 0)
	if st.Evicted != 1 {
		t.Fatalf("evicted %d, want 1", st.Evicted)
	}
	if len(rows) != 2 {
		t.Fatalf("rows %d, want 2", len(rows))
	}
	if rows[0].Fingerprint != "A" || rows[0].Calls != 3 {
		t.Fatalf("heavy hitter displaced: %+v", rows)
	}
	var c *RowSnapshot
	for i := range rows {
		if rows[i].Fingerprint == "C" {
			c = &rows[i]
		}
	}
	if c == nil {
		t.Fatalf("C missing: %+v", rows)
	}
	if c.DisplacedCalls != 1 {
		t.Fatalf("C's error bound %d, want 1 (B's calls)", c.DisplacedCalls)
	}
	if st.Observations != 5 {
		t.Fatalf("observations %d, want 5 (evictions don't erase history)", st.Observations)
	}
}

func TestStoreSortAndLimit(t *testing.T) {
	s := NewStore(8)
	s.Observe("fast-and-frequent", 0, Costs{Calls: 1, WallNS: 1000, TuplesExamined: 1})
	s.Observe("fast-and-frequent", 1, Costs{Calls: 1, WallNS: 1000, TuplesExamined: 1})
	s.Observe("fast-and-frequent", 2, Costs{Calls: 1, WallNS: 1000, TuplesExamined: 1})
	s.Observe("slow", 0, Costs{Calls: 1, WallNS: int64(time.Second), TuplesExamined: 10})
	s.Observe("scan-heavy", 0, Costs{Calls: 2, WallNS: 2000, TuplesExamined: 99999})

	_, byTime := s.Snapshot(SortTotalTime, 0)
	if byTime[0].Fingerprint != "slow" {
		t.Fatalf("sort=total_time head %q", byTime[0].Fingerprint)
	}
	_, byCalls := s.Snapshot(SortCalls, 0)
	if byCalls[0].Fingerprint != "fast-and-frequent" {
		t.Fatalf("sort=calls head %q", byCalls[0].Fingerprint)
	}
	_, byTuples := s.Snapshot(SortTuples, 0)
	if byTuples[0].Fingerprint != "scan-heavy" {
		t.Fatalf("sort=tuples head %q", byTuples[0].Fingerprint)
	}
	_, limited := s.Snapshot(SortCalls, 2)
	if len(limited) != 2 {
		t.Fatalf("limit=2 returned %d rows", len(limited))
	}
	if !ValidSort("") || !ValidSort(SortTuples) || ValidSort("nope") {
		t.Fatal("ValidSort misclassifies")
	}
}

func TestStoreReset(t *testing.T) {
	s := NewStore(4)
	s.Observe("A", 0, Costs{Calls: 1})
	before := s.Stats()
	s.Reset()
	after, rows := s.Snapshot("", 0)
	if len(rows) != 0 || after.Tracked != 0 {
		t.Fatalf("reset left rows: %+v", rows)
	}
	if after.Generation != before.Generation+1 {
		t.Fatalf("generation %d, want %d", after.Generation, before.Generation+1)
	}
	if !after.Since.After(before.Since) && !after.Since.Equal(before.Since) {
		t.Fatalf("since went backwards: %v -> %v", before.Since, after.Since)
	}
	if after.Observations != 1 {
		t.Fatalf("observations %d: lifetime counters survive Reset", after.Observations)
	}
	s.Observe("A", 0, Costs{Calls: 1})
	_, rows = s.Snapshot("", 0)
	if len(rows) != 1 || rows[0].Calls != 1 {
		t.Fatalf("post-reset accumulation wrong: %+v", rows)
	}
}

// TestStoreConcurrent races Observe (hot path + COW inserts + evictions)
// against Snapshot and Reset. Run with -race; the invariant checked at
// the end is only that the store survives with sane totals, since Reset
// legitimately drops racing observations.
func TestStoreConcurrent(t *testing.T) {
	s := NewStore(16) // smaller than the fingerprint universe: evictions happen
	var wg sync.WaitGroup
	const writers, perWriter = 8, 2000
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				fp := fmt.Sprintf("Q%d", (w+i)%24)
				s.Observe(fp, uint64(i), Costs{Calls: 1, WallNS: 1000, TuplesExamined: 2})
			}
		}(w)
	}
	stop := make(chan struct{})
	var readWG sync.WaitGroup
	readWG.Add(1)
	go func() {
		defer readWG.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			s.Snapshot(SortCalls, 8)
			if i%50 == 49 {
				s.Reset()
			}
		}
	}()
	wg.Wait()
	close(stop)
	readWG.Wait()
	st := s.Stats()
	if st.Observations != writers*perWriter {
		t.Fatalf("observations %d, want %d (lifetime counter must not lose writes)",
			st.Observations, writers*perWriter)
	}
	if st.Tracked > 16 {
		t.Fatalf("tracked %d exceeds k=16", st.Tracked)
	}
}

func TestFromTrace(t *testing.T) {
	tr := trace.New("cite")
	ctx := trace.NewContext(context.Background(), tr)
	_, adm := trace.StartSpan(ctx, "admission")
	adm.End()
	_, cacheSpan := trace.StartSpan(ctx, "cache")
	cacheSpan.End()
	evalCtx, eval := trace.StartSpan(ctx, "eval")
	eval.Add("tuples_examined", 40)
	eval.Add("out_tuples", 4)
	_, br := trace.StartSpan(evalCtx, "branch")
	br.End()
	_, br2 := trace.StartSpan(evalCtx, "branch")
	br2.Add("tuples_examined", 2)
	br2.End()
	_, vw := trace.StartSpan(evalCtx, "views")
	vw.Set("cache", "miss")
	vw.End()
	_, pl := trace.StartSpan(evalCtx, "plan")
	pl.End()
	eval.End()
	_, enc := trace.StartSpan(ctx, "encode")
	enc.Add("bytes", 512)
	enc.End()
	tr.Finish()

	c := FromTrace(tr)
	if c.WallNS <= 0 || c.AdmissionNS <= 0 || c.CacheNS <= 0 || c.EvalNS <= 0 || c.EncodeNS <= 0 {
		t.Fatalf("stage durations missing: %+v", c)
	}
	if c.TuplesExamined != 42 || c.OutTuples != 4 {
		t.Fatalf("work counters: %+v", c)
	}
	if c.ViewHits != 0 || c.ViewMisses != 1 {
		t.Fatalf("view cache split: %+v", c)
	}
	if c.RespBytes != 512 {
		t.Fatalf("resp bytes %d", c.RespBytes)
	}
	if FromTrace(nil).Calls != 0 {
		t.Fatal("nil trace must reduce to zero")
	}
}

func TestObserveRequestAttribution(t *testing.T) {
	s := NewStore(8)
	tr := trace.New("cite")
	ctx := trace.NewContext(context.Background(), tr)
	_, eval := trace.StartSpan(ctx, "eval")
	eval.Add("tuples_examined", 100)
	eval.End()
	tr.Finish()

	// Batch of three: one miss (owns the engine work), one hit, one
	// unparsable (skipped). Same shape for miss and hit — they share a
	// fingerprint row.
	s.ObserveRequest(tr, []Outcome{
		{Query: "Q(FName) :- Family(11, FName, Desc)", Cache: "miss"},
		{Query: "Q(FName) :- Family(12, FName, Desc)", Cache: "hit"},
		{Query: "this does not parse", Cache: "", Err: true},
	})
	st, rows := s.Snapshot("", 0)
	if len(rows) != 1 {
		t.Fatalf("rows %d, want 1 (shared fingerprint, unparsable skipped): %+v", len(rows), rows)
	}
	r := rows[0]
	if r.Calls != 2 || st.Observations != 2 {
		t.Fatalf("calls %d obs %d, want 2/2", r.Calls, st.Observations)
	}
	if r.DistinctConsts != 2 {
		t.Fatalf("distinct consts %d, want 2", r.DistinctConsts)
	}
	if r.ResultHits != 1 || r.ResultMisses != 1 || r.ResultCoalesced != 0 {
		t.Fatalf("cache split %+v", r)
	}
	// All engine work belongs to the miss — and both calls land in the
	// same row, so the row total is the full 100.
	if r.TuplesExamined != 100 {
		t.Fatalf("tuples %d, want 100", r.TuplesExamined)
	}

	// Nil/empty guards.
	s.ObserveRequest(nil, []Outcome{{Query: "x"}})
	s.ObserveRequest(tr, nil)
	var nilStore *Store
	nilStore.ObserveRequest(tr, []Outcome{{Query: "x"}})
	nilStore.Observe("x", 0, Costs{Calls: 1})
	nilStore.Reset()
}

func TestShareConservesTotals(t *testing.T) {
	for _, total := range []int64{0, 1, 7, 100, 101} {
		for n := 1; n <= 5; n++ {
			var sum int64
			for i := 0; i < n; i++ {
				sum += share(total, n, i)
			}
			if sum != total {
				t.Fatalf("share(%d, %d) sums to %d", total, n, sum)
			}
		}
	}
}

func TestFingerprintMemoization(t *testing.T) {
	s := NewStore(4)
	fp1, h1, ok := s.fingerprint("Q(FName) :- Family(11, FName, Desc)")
	if !ok || fp1 == "" {
		t.Fatalf("fingerprint failed: %q", fp1)
	}
	// The second resolution hits the memo and inserts nothing.
	fp2, h2, ok := s.fingerprint("Q(FName) :- Family(11, FName, Desc)")
	if !ok || fp1 != fp2 || h1 != h2 {
		t.Fatalf("memoized resolution differs: %q/%d vs %q/%d", fp1, h1, fp2, h2)
	}
	if n := memoLen(s); n != 1 || s.fps.n != 1 {
		t.Fatalf("memo holds %d entries (counted %d), want 1", n, s.fps.n)
	}
	// Parse failures memoize too (as misses).
	if _, _, ok := s.fingerprint("not a query"); ok {
		t.Fatal("unparsable text must not fingerprint")
	}
	if _, _, ok := s.fingerprint("not a query"); ok {
		t.Fatal("memoized failure must stay a failure")
	}
	if n := memoLen(s); n != 2 || s.fps.n != 2 {
		t.Fatalf("memo holds %d entries (counted %d), want 2", n, s.fps.n)
	}
}

// memoLen counts the fingerprint memo's entries.
func memoLen(s *Store) int {
	n := 0
	s.fps.m.Range(func(any, any) bool { n++; return true })
	return n
}

// wantFingerprint resolves a text without the memo.
func wantFingerprint(t testing.TB, query string) (string, uint64) {
	t.Helper()
	q, err := cq.Parse(query)
	if err != nil {
		t.Fatal(err)
	}
	fp, consts := q.Fingerprint()
	return fp, cq.ConstHash(consts)
}

func TestFingerprintMemoBound(t *testing.T) {
	s := NewStore(4)
	text := func(i int) string { return fmt.Sprintf("Q(FName) :- Family(%d, FName, Desc)", i) }
	for i := 0; i <= maxFPCache; i++ {
		fp, h, ok := s.fingerprint(text(i))
		wfp, wh := wantFingerprint(t, text(i))
		if !ok || fp != wfp || h != wh {
			t.Fatalf("text %d: got %q/%d, want %q/%d", i, fp, h, wfp, wh)
		}
		if s.fps.n > maxFPCache {
			t.Fatalf("text %d: memo counts %d entries, bound %d", i, s.fps.n, maxFPCache)
		}
		if i == maxFPCache-1 {
			if n := memoLen(s); n != maxFPCache {
				t.Fatalf("full memo holds %d entries, want %d", n, maxFPCache)
			}
		}
	}
	// Text maxFPCache found the memo full: the memo was dropped and holds
	// only that text.
	if n := memoLen(s); n != 1 || s.fps.n != 1 {
		t.Fatalf("after the drop the memo holds %d entries (counted %d), want 1", n, s.fps.n)
	}
	// A dropped text re-resolves to the same answer.
	fp, h, ok := s.fingerprint(text(0))
	if wfp, wh := wantFingerprint(t, text(0)); !ok || fp != wfp || h != wh {
		t.Fatalf("re-resolved text 0: got %q/%d, want %q/%d", fp, h, wfp, wh)
	}
}

// TestFingerprintConcurrent has 8 goroutines fingerprint overlapping
// windows of texts that together exceed maxFPCache, so loads, inserts
// and whole-memo drops interleave. Run it under -race.
func TestFingerprintConcurrent(t *testing.T) {
	const workers, window, stride = 8, 1024, 512
	total := stride*(workers-1) + window
	if total <= maxFPCache {
		t.Fatalf("%d texts do not overflow the memo (%d)", total, maxFPCache)
	}
	texts := make([]string, total)
	type answer struct {
		fp   string
		hash uint64
	}
	want := make([]answer, total)
	for i := range texts {
		texts[i] = fmt.Sprintf("Q(FName) :- Family(%d, FName, Desc)", i)
		want[i].fp, want[i].hash = wantFingerprint(t, texts[i])
	}
	s := NewStore(4)
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(lo int) {
			defer wg.Done()
			for pass := 0; pass < 2; pass++ {
				for i := lo; i < lo+window; i++ {
					fp, h, ok := s.fingerprint(texts[i])
					if !ok || fp != want[i].fp || h != want[i].hash {
						errs <- fmt.Sprintf("text %d: got %q/%d", i, fp, h)
						return
					}
				}
			}
		}(w * stride)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if n := memoLen(s); n > maxFPCache || n != s.fps.n {
		t.Fatalf("memo holds %d entries (counted %d), bound %d", n, s.fps.n, maxFPCache)
	}
}
