package datacitation

// BenchmarkServerCite measures end-to-end serving throughput of the
// network layer (internal/server) over httptest: HTTP round-trip, JSON
// envelope, result cache, and — on cold paths — the full citation
// engine. It rides alongside BenchmarkE10ConcurrentCite (the in-process
// ceiling) so BENCH_* tracks how much of the engine's concurrent
// throughput survives the wire.
//
// Axes: 1/4/16 concurrent clients × cold/warm cache. Warm serves every
// request from the version-keyed result cache; cold invalidates the
// cache around every request, so each request pays a computation (under
// concurrency some requests coalesce onto a neighbor's computation —
// exactly what a cold-start stampede looks like in production).

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/format"
	"repro/internal/server"
)

func BenchmarkServerCite(b *testing.B) {
	benchServerCite(b, "/cite")
}

// BenchmarkVersionedCite is BenchmarkServerCite over the time-travel
// endpoint (POST /cite?version=1): the request path adds the version
// parse + snapshot lookup, keys the result cache by version instead of
// epoch, and on cold paths cites against the committed snapshot through
// the generator's versioned caches. Tracked beside ServerCite in
// BENCH_eval.json so versioned serving cannot silently regress against
// head serving.
func BenchmarkVersionedCite(b *testing.B) {
	benchServerCite(b, "/cite?version=1")
}

// BenchmarkServerCiteDistinct cites a fresh (shape, constant) query per
// op, so no result or atom cache entry is ever reused and every
// request pays the full engine path plus the query-statistics store's
// first sight of a new text. ServerCite's cold mode re-cites the same
// four queries, so per-query fixed costs — memory sized for the worst
// case rather than the answer — never show there. Besides B/op it
// reports retained-KB/query: the live-heap growth across the run (after
// runtime.GC) divided by b.N, which is what each distinct query leaves
// behind in the server's caches.
func BenchmarkServerCiteDistinct(b *testing.B) {
	const families = 2000
	sys, err := experiments.GtoPdbSystem(families)
	if err != nil {
		b.Fatal(err)
	}
	// A per-target view, so the four shapes below are the citeload cold
	// workload's.
	if err := sys.DefineView(
		"lambda TID. TargetView(TID, FID, TName, Type) :- Target(TID, FID, TName, Type)",
		format.NewRecord(format.FieldDatabase, experiments.GtoPdbTitle),
		core.CitationSpec{
			Query:  "lambda TID. CTgt(TID, CName) :- Contributor(TID, CName)",
			Fields: []string{format.FieldIdentifier, format.FieldAuthor},
		}); err != nil {
		b.Fatal(err)
	}
	sys.Commit("bench base")
	srv := server.New(sys, server.Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()

	shapes := []string{
		"Q(FName, Desc) :- Family(%[1]d, FName, Desc)",
		"Q(FName, Text) :- Family(%[1]d, FName, Desc), FamilyIntro(%[1]d, Text)",
		"Q(TName, Type) :- Target(%[1]d, FID, TName, Type)",
		"Q(FName, TName) :- Target(%[1]d, FID, TName, Type), Family(FID, FName, Desc)",
	}
	// Key i has shape i mod 4 and constant 1 + (i/4 mod families-2), so
	// keys are distinct until 4·(families-2) ops; the top two constants
	// are kept for the warm-up.
	citeBody := func(si, c int) []byte {
		body, err := json.Marshal(map[string]string{"query": fmt.Sprintf(shapes[si], c)})
		if err != nil {
			b.Fatal(err)
		}
		return body
	}
	post := func(body []byte) error {
		resp, err := client.Post(ts.URL+"/cite", "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("status %d", resp.StatusCode)
		}
		return nil
	}
	// Warm up with two constants per shape: the first cite of a shape
	// materializes its views and columnar blocks, and the second pays
	// the rest of the one-time work a shape's later cites share.
	var warm [][]byte
	for si := range shapes {
		warm = append(warm, citeBody(si, families), citeBody(si, families-1))
	}
	warmUp := func() {
		for _, body := range warm {
			if err := post(body); err != nil {
				b.Fatal(err)
			}
		}
	}
	warmUp()
	bodies := make([][]byte, b.N)
	for i := range bodies {
		bodies[i] = citeBody(i%len(shapes), 1+(i/len(shapes))%(families-2))
	}

	// Two collections before each heap sample: the first moves sync.Pool
	// contents to the victim cache, the second frees them. Re-citing the
	// warm-up (result-cache hits) then refills the pools, so B/op is not
	// their refill; what the re-cites retain is a fixed few KB, which a
	// run of a few hundred ops spreads thin.
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	warmUp()
	b.ReportAllocs()
	b.ResetTimer()
	for _, body := range bodies {
		if err := post(body); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(bodies) // live in both samples, so they cancel
	grown := float64(int64(after.HeapAlloc) - int64(before.HeapAlloc))
	b.ReportMetric(grown/1024/float64(b.N), "retained-KB/query")
}

func benchServerCite(b *testing.B, path string) {
	sys, err := experiments.GtoPdbSystem(300)
	if err != nil {
		b.Fatal(err)
	}
	sys.Commit("bench base")
	srv := server.New(sys, server.Options{CacheSize: 4096})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	queries := experiments.E10Workload()
	bodies := make([][]byte, len(queries))
	for i, q := range queries {
		body, err := json.Marshal(map[string]string{"query": q})
		if err != nil {
			b.Fatal(err)
		}
		bodies[i] = body
	}
	post := func(client *http.Client, i int) error {
		resp, err := client.Post(ts.URL+path, "application/json",
			bytes.NewReader(bodies[i%len(bodies)]))
		if err != nil {
			return err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("status %d", resp.StatusCode)
		}
		return nil
	}

	for _, clients := range []int{1, 4, 16} {
		for _, mode := range []string{"cold", "warm"} {
			b.Run(fmt.Sprintf("clients-%d/%s", clients, mode), func(b *testing.B) {
				if mode == "warm" {
					for i := range queries {
						if err := post(ts.Client(), i); err != nil {
							b.Fatal(err)
						}
					}
				} else {
					srv.InvalidateCache()
				}
				var wg sync.WaitGroup
				next := make(chan int)
				errs := make(chan error, clients)
				for w := 0; w < clients; w++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						client := ts.Client()
						failed := false
						// Keep draining after a failure: the b.N feed loop
						// must never block on a dead worker.
						for i := range next {
							if failed {
								continue
							}
							if mode == "cold" {
								srv.InvalidateCache()
							}
							if err := post(client, i); err != nil {
								failed = true
								select {
								case errs <- err:
								default:
								}
							}
						}
					}()
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					next <- i
				}
				close(next)
				wg.Wait()
				b.StopTimer()
				select {
				case err := <-errs:
					b.Fatal(err)
				default:
				}
			})
		}
	}
}

// BenchmarkServerCiteTraceOverhead pits span tracing disabled
// (TraceSample -1, which also starves the query-statistics store — it
// is fed from finished traces) against the fully instrumented default
// (every request traced; ring, stage histograms and per-fingerprint
// qstats accumulation all fed) on the warm 16-client ServerCite
// configuration — the hot path where instrumentation overhead is
// proportionally largest, since a cache hit does no engine work to
// hide behind.
//
// The comparison is paired: both servers exist at once and the
// benchmark alternates slices of requests between them, accumulating
// wall time per mode. Back-to-back "off" and "on" runs of a whole
// benchmark differ by 10%+ on shared hardware from load drift alone;
// interleaving at ~slice granularity makes that drift hit both modes
// equally, so the reported on-off-ratio metric isolates the
// instrumentation cost. CI asserts on-off-ratio < 1.05 from
// BENCH_eval.json.
func BenchmarkServerCiteTraceOverhead(b *testing.B) {
	type mode struct {
		srv *server.Server
		ts  *httptest.Server
	}
	modes := make([]mode, 2) // [0] = off, [1] = on
	for i, sample := range []float64{-1, 1} {
		sys, err := experiments.GtoPdbSystem(300)
		if err != nil {
			b.Fatal(err)
		}
		sys.Commit("bench base")
		srv := server.New(sys, server.Options{CacheSize: 4096, TraceSample: sample})
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		modes[i] = mode{srv: srv, ts: ts}
	}

	queries := experiments.E10Workload()
	bodies := make([][]byte, len(queries))
	for i, q := range queries {
		body, err := json.Marshal(map[string]string{"query": q})
		if err != nil {
			b.Fatal(err)
		}
		bodies[i] = body
	}
	post := func(client *http.Client, url string, i int) error {
		resp, err := client.Post(url+"/cite", "application/json",
			bytes.NewReader(bodies[i%len(bodies)]))
		if err != nil {
			return err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("status %d", resp.StatusCode)
		}
		return nil
	}
	for _, m := range modes {
		for i := range queries {
			if err := post(m.ts.Client(), m.ts.URL, i); err != nil {
				b.Fatal(err)
			}
		}
	}

	// runSlice pushes n warm requests through a 16-client pool and
	// returns the wall time for the batch.
	const clients = 16
	runSlice := func(m mode, n int) (time.Duration, error) {
		var wg sync.WaitGroup
		next := make(chan int)
		errs := make(chan error, clients)
		for w := 0; w < clients; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				client := m.ts.Client()
				failed := false
				for i := range next {
					if failed {
						continue
					}
					if err := post(client, m.ts.URL, i); err != nil {
						failed = true
						select {
						case errs <- err:
						default:
						}
					}
				}
			}()
		}
		start := time.Now()
		for i := 0; i < n; i++ {
			next <- i
		}
		close(next)
		wg.Wait()
		el := time.Since(start)
		select {
		case err := <-errs:
			return el, err
		default:
			return el, nil
		}
	}

	// Alternate off/on slices — and flip which mode goes first on every
	// pair, so a "second slice runs on a warmer scheduler" effect cannot
	// systematically favor one mode. Each mode serves b.N requests
	// total, so ns/op reports the cost of one off+on request pair.
	const slice = 128
	var wall [2]time.Duration
	b.ResetTimer()
	for done := 0; done < b.N; {
		n := slice
		if rest := b.N - done; rest < n {
			n = rest
		}
		first := (done / slice) % 2
		for k := 0; k < 2; k++ {
			mi := (first + k) % 2
			el, err := runSlice(modes[mi], n)
			if err != nil {
				b.Fatal(err)
			}
			wall[mi] += el
		}
		done += n
	}
	b.StopTimer()
	b.ReportMetric(float64(wall[0].Nanoseconds())/float64(b.N), "off-ns/op")
	b.ReportMetric(float64(wall[1].Nanoseconds())/float64(b.N), "on-ns/op")
	b.ReportMetric(float64(wall[1])/float64(wall[0]), "on-off-ratio")
}

// BenchmarkMixedReadWrite measures what delta-aware invalidation buys
// under a read/write mix: N client goroutines drain the E10 query mix
// while the dispatcher ingests a single-relation Family delta and
// commits once per writeEvery cites, so every run does the same writes
// for the same cites. With dependency-scoped invalidation, queries that do
// not read Family (Q3, over FamilyIntro) keep hitting the result cache
// across commits; the per-op metric untouched-hit-rate reports the
// fraction of those requests served from cache (the acceptance bar is
// >0.90). Under epoch-keyed invalidation this rate collapses toward 0 —
// every commit flushed everything.
func BenchmarkMixedReadWrite(b *testing.B) {
	sys, err := experiments.GtoPdbSystem(300)
	if err != nil {
		b.Fatal(err)
	}
	sys.Commit("bench base")
	srv := server.New(sys, server.Options{CacheSize: 4096})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	queries := experiments.E10Workload()
	const untouchedIdx = 2 // Q3 reads only FamilyIntro; the writer touches Family
	bodies := make([][]byte, len(queries))
	for i, q := range queries {
		body, err := json.Marshal(map[string]string{"query": q})
		if err != nil {
			b.Fatal(err)
		}
		bodies[i] = body
	}

	post := func(client *http.Client, path string, body []byte) ([]byte, error) {
		resp, err := client.Post(ts.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		out, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, out)
		}
		return out, nil
	}

	// One ingest and one commit per writeEvery cites, about the mix of
	// citeload's mixed workload. Family IDs stay fresh across runs, so
	// every ingest inserts a row and every commit touches Family.
	const writeEvery = 32
	commitBody, _ := json.Marshal(map[string]string{"message": "delta"})
	fid := 1_000_000
	write := func(client *http.Client) error {
		fid++
		ingest, _ := json.Marshal(map[string]any{
			"relation": "Family",
			"insert":   [][]any{{fid, fmt.Sprintf("Bench %d", fid), "D"}},
		})
		if _, err := post(client, "/ingest", ingest); err != nil {
			return err
		}
		_, err := post(client, "/commit", commitBody)
		return err
	}

	for _, clients := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("clients-%d", clients), func(b *testing.B) {
			// Prime the cache so the steady state starts warm.
			for i := range queries {
				if _, err := post(ts.Client(), "/cite", bodies[i]); err != nil {
					b.Fatal(err)
				}
			}

			var untouchedHits, untouchedTotal atomic.Int64
			var wg sync.WaitGroup
			next := make(chan int)
			errs := make(chan error, clients)
			for w := 0; w < clients; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					client := ts.Client()
					failed := false
					for i := range next {
						if failed {
							continue
						}
						qi := i % len(queries)
						out, err := post(client, "/cite", bodies[qi])
						if err != nil {
							failed = true
							select {
							case errs <- err:
							default:
							}
							continue
						}
						if qi == untouchedIdx {
							var env struct {
								Result struct {
									Cache string `json:"cache"`
								} `json:"result"`
							}
							if json.Unmarshal(out, &env) == nil {
								untouchedTotal.Add(1)
								if env.Result.Cache == "hit" {
									untouchedHits.Add(1)
								}
							}
						}
					}
				}()
			}
			writer := ts.Client()
			var writeErr error
			b.ResetTimer()
			for i := 0; i < b.N && writeErr == nil; i++ {
				if i%writeEvery == writeEvery-1 {
					writeErr = write(writer)
				}
				next <- i
			}
			close(next)
			wg.Wait()
			b.StopTimer()
			if writeErr != nil {
				b.Fatal(writeErr)
			}
			select {
			case err := <-errs:
				b.Fatal(err)
			default:
			}
			if total := untouchedTotal.Load(); total > 0 {
				b.ReportMetric(float64(untouchedHits.Load())/float64(total), "untouched-hit-rate")
			}
		})
	}
}
