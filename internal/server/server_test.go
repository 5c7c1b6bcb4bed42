package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fixity"
	"repro/internal/format"
	"repro/internal/spec"
	"repro/internal/storage"
	"repro/internal/value"
)

const paperQuery = "Q(FName) :- Family(FID, FName, Desc)"

// paperServer loads testdata/paper.dcs, commits an initial version, and
// wraps the system in a test server.
func paperServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "..", "testdata", "paper.dcs"))
	if err != nil {
		t.Fatal(err)
	}
	sys, err := spec.Load(string(raw))
	if err != nil {
		t.Fatal(err)
	}
	sys.Commit("test base")
	srv := New(sys, opts)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func postJSON(t *testing.T, client *http.Client, url string, body any) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func getJSON(t *testing.T, client *http.Client, url string, into any) *http.Response {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if into != nil {
		if err := json.Unmarshal(raw, into); err != nil {
			t.Fatalf("response not JSON: %v\n%s", err, raw)
		}
	}
	return resp
}

func getText(t *testing.T, client *http.Client, url string) string {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

func TestCiteSingle(t *testing.T) {
	_, ts := paperServer(t, Options{})
	resp, body := postJSON(t, ts.Client(), ts.URL+"/cite", citeRequest{Query: paperQuery})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out citeResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("bad response: %v\n%s", err, body)
	}
	if out.Result == nil || out.Results != nil {
		t.Fatalf("single request must answer with result, not results: %s", body)
	}
	if out.Version != 1 || out.Epoch < 1 {
		t.Errorf("version=%d epoch=%d", out.Version, out.Epoch)
	}
	if got := out.Result.Record[format.FieldDatabase]; len(got) == 0 {
		t.Errorf("citation has no database field: %s", body)
	}
	if out.Result.Pin == nil || out.Result.Pin.Version != 1 || out.Result.Pin.SHA256 == "" {
		t.Errorf("missing or malformed pin: %+v", out.Result.Pin)
	}
	if out.Result.Cache != "miss" {
		t.Errorf("first request cache status %q", out.Result.Cache)
	}
	if !strings.Contains(out.Result.Text, "sha256=") {
		t.Errorf("text rendering lost the pin: %q", out.Result.Text)
	}
}

// TestCiteWireMatchesDiskRenderer decodes the record the server emits
// and compares it field-by-field against what the engine + format.JSON
// produce locally — the citation renders identically on disk and on the
// wire.
func TestCiteWireMatchesDiskRenderer(t *testing.T) {
	srv, ts := paperServer(t, Options{})
	_, body := postJSON(t, ts.Client(), ts.URL+"/cite", citeRequest{Query: paperQuery})
	var out citeResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}

	cite, err := srv.System().Cite(paperQuery)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Result.Record.Equal(cite.Result.Record) {
		t.Errorf("wire record != engine record:\n%v\n%v", out.Result.Record, cite.Result.Record)
	}
	rendered, err := format.JSON(cite.Result.Record)
	if err != nil {
		t.Fatal(err)
	}
	var fromDisk format.Record
	if err := json.Unmarshal([]byte(rendered), &fromDisk); err != nil {
		t.Fatal(err)
	}
	if !out.Result.Record.Equal(fromDisk) {
		t.Errorf("wire record != format.JSON record:\n%v\n%s", out.Result.Record, rendered)
	}
	for f, vs := range fromDisk {
		ws := out.Result.Record[f]
		if len(ws) != len(vs) {
			t.Fatalf("field %s: wire has %d values, disk %d", f, len(ws), len(vs))
		}
		for i := range vs {
			if ws[i] != vs[i] {
				t.Errorf("field %s[%d]: wire %q, disk %q", f, i, ws[i], vs[i])
			}
		}
	}
}

// TestConcurrentCiteComputesOnce is the acceptance race test: many
// concurrent POST /cite for the same query at the same version must
// compute the citation exactly once — every other request is served by
// coalescing onto the in-flight computation or by the result cache.
func TestConcurrentCiteComputesOnce(t *testing.T) {
	srv, ts := paperServer(t, Options{})
	var computations atomic.Int64
	inner := srv.citer
	srv.citer = func(ctx context.Context, queries []string, v fixity.Version) ([]*core.Citation, []error) {
		computations.Add(int64(len(queries)))
		return inner(ctx, queries, v)
	}

	const clients = 24
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	start := make(chan struct{})
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			resp, body := postJSON(t, ts.Client(), ts.URL+"/cite", citeRequest{Query: paperQuery})
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("status %d: %s", resp.StatusCode, body)
				return
			}
			var out citeResponse
			if err := json.Unmarshal(body, &out); err != nil {
				errs <- err
				return
			}
			if out.Result == nil || len(out.Result.Record) == 0 {
				errs <- fmt.Errorf("empty citation: %s", body)
			}
		}()
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	if got := computations.Load(); got != 1 {
		t.Errorf("citation computed %d times for %d concurrent clients, want exactly 1", got, clients)
	}
	stats := srv.CacheStats()
	if stats.Misses != 1 {
		t.Errorf("cache misses = %d, want 1", stats.Misses)
	}
	if stats.Hits+stats.Coalesced != clients-1 {
		t.Errorf("hits(%d)+coalesced(%d) = %d, want %d",
			stats.Hits, stats.Coalesced, stats.Hits+stats.Coalesced, clients-1)
	}
}

// TestCommitInvalidatesCache is the second acceptance half: POST /commit
// bumps the version, and the next cite recomputes against the new state
// instead of serving the stale cached result.
func TestCommitInvalidatesCache(t *testing.T) {
	srv, ts := paperServer(t, Options{})
	client := ts.Client()

	_, body := postJSON(t, client, ts.URL+"/cite", citeRequest{Query: paperQuery})
	var first citeResponse
	if err := json.Unmarshal(body, &first); err != nil {
		t.Fatal(err)
	}
	// Served from cache on repeat.
	_, body = postJSON(t, client, ts.URL+"/cite", citeRequest{Query: paperQuery})
	var repeat citeResponse
	if err := json.Unmarshal(body, &repeat); err != nil {
		t.Fatal(err)
	}
	if repeat.Result.Cache != "hit" {
		t.Errorf("repeat request cache status %q, want hit", repeat.Result.Cache)
	}

	// Mutate the head so the new version's citation differs, then commit.
	db := srv.System().Database()
	if err := db.Insert("Family", value.Int(13), value.String("Adrenomedullin"), value.String("C3")); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("Committee", value.Int(13), value.String("Dave")); err != nil {
		t.Fatal(err)
	}
	resp, body := postJSON(t, client, ts.URL+"/commit", commitRequest{Message: "add family 13"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("commit status %d: %s", resp.StatusCode, body)
	}
	var commitOut struct {
		Epoch   int64 `json:"epoch"`
		Version int   `json:"version"`
	}
	if err := json.Unmarshal(body, &commitOut); err != nil {
		t.Fatal(err)
	}
	if commitOut.Version != 2 || commitOut.Epoch <= first.Epoch {
		t.Errorf("commit version=%d epoch=%d (was %d)", commitOut.Version, commitOut.Epoch, first.Epoch)
	}

	_, body = postJSON(t, client, ts.URL+"/cite", citeRequest{Query: paperQuery})
	var after citeResponse
	if err := json.Unmarshal(body, &after); err != nil {
		t.Fatal(err)
	}
	if after.Result.Cache != "miss" {
		t.Errorf("post-commit request cache status %q, want miss (cache invalidated)", after.Result.Cache)
	}
	if after.Version != 2 || after.Result.Pin == nil || after.Result.Pin.Version != 2 {
		t.Errorf("post-commit cite not pinned to new version: version=%d pin=%+v", after.Version, after.Result.Pin)
	}
	if after.Result.Pin.SHA256 == first.Result.Pin.SHA256 {
		t.Error("post-commit digest identical — stale result served")
	}
	if stats := srv.CacheStats(); stats.Misses != 2 {
		t.Errorf("misses = %d, want 2 (one per version)", stats.Misses)
	}
}

func TestCiteBatch(t *testing.T) {
	_, ts := paperServer(t, Options{})
	queries := []string{
		paperQuery,
		"((not a query",
		"Q(Text) :- FamilyIntro(FID, Text)",
		paperQuery, // duplicate coalesces within the batch
	}
	resp, body := postJSON(t, ts.Client(), ts.URL+"/cite", citeRequest{Queries: queries})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out citeResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 4 {
		t.Fatalf("%d results, want 4", len(out.Results))
	}
	if out.Results[0].Error != "" || len(out.Results[0].Record) == 0 {
		t.Errorf("result 0: %+v", out.Results[0])
	}
	if out.Results[1].Error == "" {
		t.Error("parse failure at position 1 not reported")
	}
	if out.Results[2].Error != "" || len(out.Results[2].Record) == 0 {
		t.Errorf("result 2 failed beside a bad neighbor: %+v", out.Results[2])
	}
	if out.Results[3].Error != "" || !out.Results[3].Record.Equal(out.Results[0].Record) {
		t.Errorf("duplicate query result diverged: %+v", out.Results[3])
	}
}

func TestCiteRequestValidation(t *testing.T) {
	_, ts := paperServer(t, Options{})
	client := ts.Client()
	cases := []struct {
		name string
		body string
		want int
	}{
		{"empty body", `{}`, http.StatusBadRequest},
		{"both fields", `{"query":"q","queries":["q"]}`, http.StatusBadRequest},
		{"not json", `not json`, http.StatusBadRequest},
		{"unknown field", `{"qwery":"q"}`, http.StatusBadRequest},
		// The error taxonomy: an unparsable query is the client's fault
		// (cq.ErrBadQuery, 400); a well-formed query with no rewriting
		// over the registered views is semantically unprocessable (422).
		{"bad query", `{"query":"((("}`, http.StatusBadRequest},
		{"no rewriting", `{"query":"Q(X) :- Nowhere(X)"}`, http.StatusUnprocessableEntity},
	}
	for _, tc := range cases {
		resp, err := client.Post(ts.URL+"/cite", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}
	// Wrong methods.
	resp, err := client.Get(ts.URL + "/cite")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /cite: status %d", resp.StatusCode)
	}
	resp, err = client.Post(ts.URL+"/versions", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /versions: status %d", resp.StatusCode)
	}
}

// TestTrailingBodyDataRejected: a JSON body must be one value followed
// by nothing but whitespace. A stray closing delimiter, a bare word or a
// second value after it is a 400 on every endpoint that decodes a body;
// trailing whitespace is not.
func TestTrailingBodyDataRejected(t *testing.T) {
	_, ts := paperServer(t, Options{})
	client := ts.Client()
	valid := map[string]string{
		"/cite":   `{"query":"` + paperQuery + `"}`,
		"/ingest": `{"relation":"Family","insert":[[501,"Trailing","T"]]}`,
		"/commit": `{"message":"trailing"}`,
	}
	for _, path := range []string{"/cite", "/ingest", "/commit"} {
		for _, tc := range []struct {
			name, suffix string
			want         int
		}{
			{"closing brace", "}", http.StatusBadRequest},
			{"closing bracket", "]", http.StatusBadRequest},
			{"bare word", "x", http.StatusBadRequest},
			{"second object", valid[path], http.StatusBadRequest},
			{"second object after space", " {}", http.StatusBadRequest},
			{"trailing whitespace", " \n\t\r\n", http.StatusOK},
		} {
			resp, err := client.Post(ts.URL+path, "application/json", strings.NewReader(valid[path]+tc.suffix))
			if err != nil {
				t.Fatal(err)
			}
			out, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Errorf("%s with %s: status %d, want %d: %s", path, tc.name, resp.StatusCode, tc.want, out)
			}
		}
	}
}

func TestVersionsViewsHealthz(t *testing.T) {
	_, ts := paperServer(t, Options{})
	client := ts.Client()

	var versions struct {
		Epoch    int64 `json:"epoch"`
		Latest   int   `json:"latest"`
		Versions []struct {
			Version int    `json:"version"`
			Message string `json:"message"`
			Tuples  int    `json:"tuples"`
		} `json:"versions"`
	}
	getJSON(t, client, ts.URL+"/versions", &versions)
	if versions.Latest != 1 || len(versions.Versions) != 1 {
		t.Errorf("versions: %+v", versions)
	}
	if versions.Versions[0].Message != "test base" || versions.Versions[0].Tuples != 7 {
		t.Errorf("version record: %+v", versions.Versions[0])
	}

	var views struct {
		Count int        `json:"count"`
		Views []ViewInfo `json:"views"`
	}
	getJSON(t, client, ts.URL+"/views", &views)
	if views.Count != 3 || len(views.Views) != 3 {
		t.Fatalf("views: %+v", views)
	}
	byName := map[string]ViewInfo{}
	for _, v := range views.Views {
		byName[v.Name] = v
	}
	v1 := byName["V1"]
	if !v1.Parameterized || len(v1.Params) != 1 || v1.CitationQueries != 1 {
		t.Errorf("V1: %+v", v1)
	}
	if got := v1.Static[format.FieldDatabase]; len(got) != 1 {
		t.Errorf("V1 static record: %+v", v1.Static)
	}

	var health struct {
		Status  string `json:"status"`
		Version int    `json:"version"`
		Views   int    `json:"views"`
	}
	resp := getJSON(t, client, ts.URL+"/healthz", &health)
	if resp.StatusCode != http.StatusOK || health.Status != "ok" || health.Version != 1 || health.Views != 3 {
		t.Errorf("healthz: %d %+v", resp.StatusCode, health)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := paperServer(t, Options{})
	client := ts.Client()
	postJSON(t, client, ts.URL+"/cite", citeRequest{Query: paperQuery})
	postJSON(t, client, ts.URL+"/cite", citeRequest{Query: paperQuery})

	resp, err := client.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, want := range []string{
		`citeserved_requests_total{endpoint="cite"} 2`,
		"citeserved_cache_hits_total 1",
		"citeserved_cache_misses_total 1",
		"citeserved_cache_entries 1",
		"citeserved_store_version 1",
		"# TYPE citeserved_requests_total counter",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q:\n%s", want, body)
		}
	}
	if !strings.HasPrefix(resp.Header.Get("Content-Type"), "text/plain") {
		t.Errorf("metrics content type %q", resp.Header.Get("Content-Type"))
	}
}

// TestRequestTimeout verifies a request abandoned at its deadline
// answers 504 while the detached computation still completes and fills
// the cache for the next client.
func TestRequestTimeout(t *testing.T) {
	srv, ts := paperServer(t, Options{RequestTimeout: 30 * time.Millisecond})
	inner := srv.citer
	release := make(chan struct{})
	var delayed atomic.Bool
	srv.citer = func(ctx context.Context, queries []string, v fixity.Version) ([]*core.Citation, []error) {
		if delayed.CompareAndSwap(false, true) {
			<-release // first computation outlives the request deadline
		}
		return inner(ctx, queries, v)
	}

	resp, body := postJSON(t, ts.Client(), ts.URL+"/cite", citeRequest{Query: paperQuery})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", resp.StatusCode, body)
	}
	close(release)

	// The detached computation completes and caches; the retry is a hit.
	deadline := time.Now().Add(2 * time.Second)
	for {
		resp, body = postJSON(t, ts.Client(), ts.URL+"/cite", citeRequest{Query: paperQuery})
		var out citeResponse
		if resp.StatusCode == http.StatusOK {
			if err := json.Unmarshal(body, &out); err != nil {
				t.Fatal(err)
			}
			if out.Result.Cache == "hit" {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("abandoned computation never reached the cache: %d %s", resp.StatusCode, body)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if stats := srv.CacheStats(); stats.Misses != 1 {
		t.Errorf("misses = %d, want 1 (timeout must not recompute)", stats.Misses)
	}
}

// TestAdmissionControl verifies the semaphore: with every admission slot
// occupied, a queued request answers 503 at its deadline, and admission
// resumes once a slot frees.
func TestAdmissionControl(t *testing.T) {
	srv, ts := paperServer(t, Options{MaxInFlight: 1, RequestTimeout: 50 * time.Millisecond})
	srv.sem <- struct{}{} // occupy the only slot

	resp, body := postJSON(t, ts.Client(), ts.URL+"/cite", citeRequest{Query: paperQuery})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %s", resp.StatusCode, body)
	}
	if srv.metrics.rejected.Load() != 1 {
		t.Errorf("rejected = %d, want 1", srv.metrics.rejected.Load())
	}

	<-srv.sem // free the slot; admission resumes
	resp, body = postJSON(t, ts.Client(), ts.URL+"/cite", citeRequest{Query: paperQuery})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-release status %d: %s", resp.StatusCode, body)
	}
}

// TestCiterPanicIsContained asserts an engine panic in the detached
// computation becomes a request error — waiters released, nothing
// cached, process alive — instead of crashing the server.
func TestCiterPanicIsContained(t *testing.T) {
	srv, ts := paperServer(t, Options{})
	inner := srv.citer
	var panicked atomic.Bool
	srv.citer = func(ctx context.Context, queries []string, v fixity.Version) ([]*core.Citation, []error) {
		if panicked.CompareAndSwap(false, true) {
			panic("engine bug")
		}
		return inner(ctx, queries, v)
	}

	resp, body := postJSON(t, ts.Client(), ts.URL+"/cite", citeRequest{Query: paperQuery})
	if resp.StatusCode == http.StatusOK {
		t.Fatalf("panicked computation answered 200: %s", body)
	}
	if !strings.Contains(string(body), "panicked") {
		t.Errorf("error body: %s", body)
	}
	// The failure was not cached; the retry computes and succeeds.
	resp, body = postJSON(t, ts.Client(), ts.URL+"/cite", citeRequest{Query: paperQuery})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("server did not survive the panic: %d %s", resp.StatusCode, body)
	}
}

// TestGracefulShutdown starts a real listener, then shuts down and
// asserts Serve returns http.ErrServerClosed and pending computations
// are awaited.
func TestGracefulShutdown(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "testdata", "paper.dcs"))
	if err != nil {
		t.Fatal(err)
	}
	sys, err := spec.Load(string(raw))
	if err != nil {
		t.Fatal(err)
	}
	sys.Commit("base")
	srv := New(sys, Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	url := "http://" + ln.Addr().String()
	resp, body := postJSON(t, http.DefaultClient, url+"/cite", citeRequest{Query: paperQuery})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pre-shutdown cite: %d %s", resp.StatusCode, body)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	select {
	case err := <-serveErr:
		if err != http.ErrServerClosed {
			t.Errorf("Serve returned %v, want http.ErrServerClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after Shutdown")
	}
}

// TestVersionedCite covers time travel over the wire: POST /cite?version=N
// answers the citation pinned at N, keyed in a cache partition commits
// never invalidate, while unknown or malformed versions answer 404/400.
func TestVersionedCite(t *testing.T) {
	srv, ts := paperServer(t, Options{})
	client := ts.Client()

	// Move the head on: v2 commits new content, so head cites pin to 2.
	if err := srv.System().Database().Insert("Family",
		value.Int(13), value.String("Galanin"), value.String("C3")); err != nil {
		t.Fatal(err)
	}
	resp, body := postJSON(t, client, ts.URL+"/commit", map[string]string{"message": "v2"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("commit: %d %s", resp.StatusCode, body)
	}

	// Time travel to version 1: pin and envelope name version 1.
	resp, body = postJSON(t, client, ts.URL+"/cite?version=1", citeRequest{Query: paperQuery})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("versioned cite: %d %s", resp.StatusCode, body)
	}
	var out citeResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Version != 1 {
		t.Errorf("envelope version = %d, want 1", out.Version)
	}
	if out.Result.Pin == nil || out.Result.Pin.Version != 1 {
		t.Errorf("pin = %+v, want version 1", out.Result.Pin)
	}
	if out.Result.Cache != "miss" {
		t.Errorf("first versioned cite cache = %q, want miss", out.Result.Cache)
	}
	v1Text := out.Result.Text

	// The head cite pins to the latest version, under a separate cache key.
	resp, body = postJSON(t, client, ts.URL+"/cite", citeRequest{Query: paperQuery})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("head cite: %d %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Version != 2 || out.Result.Pin == nil || out.Result.Pin.Version != 2 {
		t.Errorf("head cite version = %d pin %+v, want 2", out.Version, out.Result.Pin)
	}

	// A further commit invalidates head results but not versioned ones:
	// the next ?version=1 cite is still a cache hit with identical bytes.
	resp, body = postJSON(t, client, ts.URL+"/commit", map[string]string{"message": "v3"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("commit: %d %s", resp.StatusCode, body)
	}
	resp, body = postJSON(t, client, ts.URL+"/cite?version=1", citeRequest{Query: paperQuery})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("versioned cite after commit: %d %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Result.Cache != "hit" {
		t.Errorf("versioned cite after commit cache = %q, want hit (immutable results survive commits)", out.Result.Cache)
	}
	if out.Result.Text != v1Text {
		t.Errorf("versioned result drifted across commits:\n got %s\nwant %s", out.Result.Text, v1Text)
	}

	// Batches accept the same parameter; every member pins to it.
	resp, body = postJSON(t, client, ts.URL+"/cite?version=1",
		citeRequest{Queries: []string{paperQuery, "Q(Text) :- FamilyIntro(FID, Text)"}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("versioned batch: %d %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	for i, r := range out.Results {
		if r.Error != "" || r.Pin == nil || r.Pin.Version != 1 {
			t.Errorf("batch member %d: error %q pin %+v, want version 1", i, r.Error, r.Pin)
		}
	}

	// Error taxonomy on the version axis.
	resp, body = postJSON(t, client, ts.URL+"/cite?version=99", citeRequest{Query: paperQuery})
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown version: %d %s, want 404", resp.StatusCode, body)
	}
	resp, body = postJSON(t, client, ts.URL+"/cite?version=0", citeRequest{Query: paperQuery})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("version=0: %d %s, want 400", resp.StatusCode, body)
	}
	resp, body = postJSON(t, client, ts.URL+"/cite?version=abc", citeRequest{Query: paperQuery})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("version=abc: %d %s, want 400", resp.StatusCode, body)
	}
}

// TestSetPolicyInvalidatesVersionedCache pins the configuration half of
// the versioned-cache contract: commits never invalidate version-pinned
// results (immutable snapshots), but SetPolicyNamed — which changes what a
// citation of even an old version contains — must orphan them.
func TestSetPolicyInvalidatesVersionedCache(t *testing.T) {
	srv, ts := paperServer(t, Options{})
	client := ts.Client()

	_, body := postJSON(t, client, ts.URL+"/cite?version=1", citeRequest{Query: paperQuery})
	var out citeResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Result.Cache != "miss" {
		t.Fatalf("first versioned cite cache = %q, want miss", out.Result.Cache)
	}

	// The default policy again: same policy, but the config generation moves.
	if err := srv.System().SetPolicyNamed("minsize"); err != nil {
		t.Fatal(err)
	}

	_, body = postJSON(t, client, ts.URL+"/cite?version=1", citeRequest{Query: paperQuery})
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Result.Cache != "miss" {
		t.Errorf("versioned cite after SetPolicyNamed cache = %q, want miss (config change must orphan versioned entries)", out.Result.Cache)
	}
}

func TestIngestEndpoint(t *testing.T) {
	srv, ts := paperServer(t, Options{})
	client := ts.Client()

	// A cite before the ingest, to prove the cache turns over.
	resp, _ := postJSON(t, client, ts.URL+"/cite", map[string]any{"query": paperQuery})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pre-ingest cite: %d", resp.StatusCode)
	}

	var ing struct {
		Epoch    int64 `json:"epoch"`
		Inserted int   `json:"inserted"`
		Deleted  int   `json:"deleted"`
		Batches  []struct {
			Relation string `json:"relation"`
			Inserted int    `json:"inserted"`
			Deleted  int    `json:"deleted"`
		} `json:"batches"`
	}
	resp, body := postJSON(t, client, ts.URL+"/ingest", map[string]any{
		"batches": []map[string]any{
			{"relation": "Family", "insert": [][]any{{77, "Amylin", "A1"}, {78, "Ghrelin", "G1"}}},
			{"relation": "Family", "delete": [][]any{{78, "Ghrelin", "G1"}, {999, "None", "X"}}},
		},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &ing); err != nil {
		t.Fatalf("ingest response: %v\n%s", err, body)
	}
	if ing.Inserted != 2 || ing.Deleted != 1 || len(ing.Batches) != 2 {
		t.Fatalf("ingest counts: %+v", ing)
	}

	// The head citation reflects the ingested tuple (epoch moved, cache
	// did not serve the stale result).
	var cite struct {
		Result struct {
			Record map[string][]string `json:"record"`
			Cache  string              `json:"cache"`
		} `json:"result"`
	}
	resp, body = postJSON(t, client, ts.URL+"/cite", map[string]any{"query": paperQuery})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-ingest cite: %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &cite); err != nil {
		t.Fatal(err)
	}
	if cite.Result.Cache != "miss" {
		t.Fatalf("post-ingest cite served %q, want a fresh computation", cite.Result.Cache)
	}

	// Error taxonomy: unknown relation 422, malformed tuples 400, both
	// shapes at once 400, empty 400 — and nothing is applied. A null
	// attribute is malformed whatever its kind, and the reply names it.
	version, sizes := srv.System().Version(), relationSizes(srv.System())
	for _, tc := range []struct {
		name string
		body map[string]any
		want int
		msg  string // a substring of the error reply, when set
	}{
		{"unknown relation", map[string]any{"relation": "Nope", "insert": [][]any{{1}}}, http.StatusUnprocessableEntity, ""},
		{"bad arity", map[string]any{"relation": "Family", "insert": [][]any{{1, "x"}}}, http.StatusBadRequest, ""},
		{"bad kind", map[string]any{"relation": "Family", "insert": [][]any{{"str", "x", "y"}}}, http.StatusBadRequest, ""},
		{"null int", map[string]any{"relation": "Family", "insert": [][]any{{nil, "x", "y"}}}, http.StatusBadRequest, "attribute FID: null"},
		{"null strings", map[string]any{"relation": "Family", "insert": [][]any{{777, nil, nil}}}, http.StatusBadRequest, "attribute FName: null"},
		{"null in a delete", map[string]any{"relation": "Family", "delete": [][]any{{11, nil, "x"}}}, http.StatusBadRequest, "attribute FName: null"},
		{"both shapes", map[string]any{"relation": "Family", "insert": [][]any{{1, "a", "b"}},
			"batches": []map[string]any{{"relation": "Family"}}}, http.StatusBadRequest, ""},
		{"empty", map[string]any{}, http.StatusBadRequest, ""},
		{"empty batch", map[string]any{"batches": []map[string]any{{"relation": "Family"}}}, http.StatusBadRequest, ""},
	} {
		resp, body := postJSON(t, client, ts.URL+"/ingest", tc.body)
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, resp.StatusCode, tc.want, body)
		}
		if !strings.Contains(string(body), tc.msg) {
			t.Errorf("%s: reply %s does not say %q", tc.name, body, tc.msg)
		}
	}
	if v, got := srv.System().Version(), relationSizes(srv.System()); v != version || !maps.Equal(got, sizes) {
		t.Errorf("rejected ingests moved the version %d -> %d or relation sizes %v -> %v", version, v, sizes, got)
	}
}

func TestRelationsEndpoint(t *testing.T) {
	srv, ts := paperServer(t, Options{})
	client := ts.Client()
	type relResp struct {
		Epoch     int64 `json:"epoch"`
		Version   int   `json:"version"`
		Relations []struct {
			Name       string `json:"name"`
			Arity      int    `json:"arity"`
			Tuples     int    `json:"tuples"`
			Attributes []struct {
				Name string `json:"name"`
				Kind string `json:"kind"`
				Key  bool   `json:"key"`
			} `json:"attributes"`
		} `json:"relations"`
	}
	var head relResp
	if resp := getJSON(t, client, ts.URL+"/relations", &head); resp.StatusCode != http.StatusOK {
		t.Fatalf("relations: %d", resp.StatusCode)
	}
	if head.Version != 1 || len(head.Relations) == 0 {
		t.Fatalf("relations head: %+v", head)
	}
	famTuples := -1
	for _, r := range head.Relations {
		if r.Name == "Family" {
			famTuples = r.Tuples
			if r.Arity != 3 || len(r.Attributes) != 3 || r.Attributes[0].Kind != "int" {
				t.Fatalf("Family shape: %+v", r)
			}
		}
	}
	if famTuples < 1 {
		t.Fatalf("Family missing or empty: %+v", head)
	}

	// Mutate + commit, then ask for the old version's cardinalities.
	if _, err := srv.System().Insert("Family", []storage.Tuple{
		{value.Int(555), value.String("New"), value.String("N")},
	}); err != nil {
		t.Fatal(err)
	}
	srv.System().Commit("v2")
	var v1, v2 relResp
	getJSON(t, client, ts.URL+"/relations?version=1", &v1)
	getJSON(t, client, ts.URL+"/relations", &v2)
	famAt := func(r relResp) int {
		for _, rel := range r.Relations {
			if rel.Name == "Family" {
				return rel.Tuples
			}
		}
		return -1
	}
	if famAt(v1) != famTuples {
		t.Fatalf("version 1 cardinality drifted: %d vs %d", famAt(v1), famTuples)
	}
	if famAt(v2) != famTuples+1 {
		t.Fatalf("head cardinality: %d, want %d", famAt(v2), famTuples+1)
	}
	if resp := getJSON(t, client, ts.URL+"/relations?version=99", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown version: %d, want 404", resp.StatusCode)
	}
	if resp := getJSON(t, client, ts.URL+"/relations?version=bogus", nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bogus version: %d, want 400", resp.StatusCode)
	}
}

// TestRelationsCountsMatchEpoch: GET /relations reads its counts and its
// epoch from one snapshot. While a writer inserts Family tuples one at a
// time, each insert bumping the epoch once, every reply's Family count
// must be the first reply's plus the epochs between them.
func TestRelationsCountsMatchEpoch(t *testing.T) {
	srv, _ := paperServer(t, Options{})
	h := srv.Handler()
	poll := func() (epoch int64, family int) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/relations", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("relations: %d %s", rec.Code, rec.Body)
		}
		var out struct {
			Epoch     int64 `json:"epoch"`
			Relations []struct {
				Name   string `json:"name"`
				Tuples int    `json:"tuples"`
			} `json:"relations"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatal(err)
		}
		for _, r := range out.Relations {
			if r.Name == "Family" {
				return out.Epoch, r.Tuples
			}
		}
		t.Fatal("relations: no Family")
		return 0, 0
	}
	e0, f0 := poll()
	const inserts = 5000
	done := make(chan error, 1)
	go func() {
		for i := range inserts {
			tup := storage.Tuple{value.Int(int64(100000 + i)), value.String("F"), value.String("D")}
			if _, err := srv.System().Insert("Family", []storage.Tuple{tup}); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	check := func(reply int) {
		e, f := poll()
		if want := f0 + int(e-e0); f != want {
			t.Fatalf("reply %d: epoch %d has %d Family tuples, want %d", reply, e, f, want)
		}
	}
	for reply := 1; ; reply++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			check(reply)
			return
		default:
			check(reply)
		}
	}
}

// durablePaperServer builds a journaling system from the paper fixture.
func durablePaperServer(t *testing.T, dir string) (*Server, *httptest.Server) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "..", "testdata", "paper.dcs"))
	if err != nil {
		t.Fatal(err)
	}
	sys, err := spec.Load(string(raw))
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.EnableDurability(dir, core.DurableOptions{}); err != nil {
		t.Fatal(err)
	}
	sys.Commit("load")
	srv := New(sys, Options{})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// TestServerCrashRecoveryByteIdentical is the HTTP half of the kill -9
// durability proof: ingest and commit three versions over the wire, pin
// a citation at version 2, crash (abandon the server without checkpoint
// or clean close), restart on the same directory, and require /versions
// to serve the identical history and the pinned ?version=2 citation to
// be byte-identical.
func TestServerCrashRecoveryByteIdentical(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "data")
	srv1, ts := durablePaperServer(t, dir)
	client := ts.Client()

	for i, ins := range [][]any{{101, "Amylin", "A"}, {102, "Ghrelin", "G"}, {103, "Motilin", "M"}} {
		resp, body := postJSON(t, client, ts.URL+"/ingest", map[string]any{
			"relation": "Family", "insert": [][]any{ins},
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest %d: %d: %s", i, resp.StatusCode, body)
		}
		resp, body = postJSON(t, client, ts.URL+"/commit", map[string]any{"message": fmt.Sprintf("wire commit %d", i)})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("commit %d: %d: %s", i, resp.StatusCode, body)
		}
	}

	// Strip the envelope's epoch (a process-local token) but keep the
	// whole result object, pin and digest included.
	pinned := func(u string) json.RawMessage {
		resp, body := postJSON(t, client, u+"/cite?version=2", map[string]any{"query": paperQuery})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("pinned cite: %d: %s", resp.StatusCode, body)
		}
		var env struct {
			Version int             `json:"version"`
			Result  json.RawMessage `json:"result"`
		}
		if err := json.Unmarshal(body, &env); err != nil {
			t.Fatal(err)
		}
		if env.Version != 2 {
			t.Fatalf("pinned cite answered version %d", env.Version)
		}
		return env.Result
	}
	versions := func(u string) string {
		var env struct {
			Latest   int               `json:"latest"`
			Versions []json.RawMessage `json:"versions"`
		}
		getJSON(t, client, u+"/versions", &env)
		raw, err := json.Marshal(env)
		if err != nil {
			t.Fatal(err)
		}
		return string(raw)
	}
	origResult := pinned(ts.URL)
	origVersions := versions(ts.URL)

	// Crash: the httptest server closes and the System is abandoned
	// without a checkpoint. Dropping the log releases the writer flock
	// so this process can reopen the directory; appends are unbuffered,
	// so this loses exactly what a kill -9 would (the CI smoke job does
	// the real cross-process kill -9).
	ts.Close()
	if err := srv1.System().CloseDurability(); err != nil {
		t.Fatal(err)
	}

	re, err := core.Open(dir, core.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	srv2 := New(re, Options{})
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	client = ts2.Client()

	if got := versions(ts2.URL); got != origVersions {
		t.Fatalf("recovered /versions differs:\n orig: %s\n got: %s", origVersions, got)
	}
	if got := pinned(ts2.URL); string(got) != string(origResult) {
		t.Fatalf("recovered pinned citation differs:\n orig: %s\n got: %s", origResult, got)
	}

	var hz struct {
		Durable          bool `json:"durable"`
		RecoveredVersion int  `json:"recovered_version"`
		Version          int  `json:"version"`
	}
	getJSON(t, client, ts2.URL+"/healthz", &hz)
	if !hz.Durable || hz.RecoveredVersion != 4 || hz.Version != 4 {
		t.Fatalf("healthz after recovery: %+v", hz)
	}
	metrics := getText(t, client, ts2.URL+"/metrics")
	for _, want := range []string{
		"citeserved_wal_segments", "citeserved_wal_bytes_since_checkpoint",
		"citeserved_recovery_seconds", "citeserved_recovered_version 4",
		`citeserved_wal_fsync_mode{mode="on-commit"} 1`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

const introQuery = "Q(Text) :- FamilyIntro(FID, Text)"

// TestCommitKeepsUntouchedEntries pins the delta invalidation rule on
// /commit: a commit touching only FamilyIntro evicts the cached
// FamilyIntro citation but keeps the Family/Committee one warm — the
// repeat cite is a hit, not a recomputation.
func TestCommitKeepsUntouchedEntries(t *testing.T) {
	srv, ts := paperServer(t, Options{})
	client := ts.Client()

	var fam, intro citeResponse
	_, body := postJSON(t, client, ts.URL+"/cite", citeRequest{Query: paperQuery})
	if err := json.Unmarshal(body, &fam); err != nil {
		t.Fatal(err)
	}
	_, body = postJSON(t, client, ts.URL+"/cite", citeRequest{Query: introQuery})
	if err := json.Unmarshal(body, &intro); err != nil {
		t.Fatal(err)
	}
	// The read-sets the cache scopes eviction by travel in the response.
	if got := fam.Result.Reads; len(got) != 2 || got[0] != "Committee" || got[1] != "Family" {
		t.Fatalf("family reads = %v, want [Committee Family]", got)
	}
	if got := intro.Result.Reads; len(got) != 1 || got[0] != "FamilyIntro" {
		t.Fatalf("intro reads = %v, want [FamilyIntro]", got)
	}

	db := srv.System().Database()
	if err := db.Insert("FamilyIntro", value.Int(13), value.String("3rd")); err != nil {
		t.Fatal(err)
	}
	resp, body := postJSON(t, client, ts.URL+"/commit", commitRequest{Message: "intro only"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("commit: %d: %s", resp.StatusCode, body)
	}

	// Untouched relations: served from the surviving entry.
	var famAfter citeResponse
	_, body = postJSON(t, client, ts.URL+"/cite", citeRequest{Query: paperQuery})
	if err := json.Unmarshal(body, &famAfter); err != nil {
		t.Fatal(err)
	}
	if famAfter.Result.Cache != "hit" {
		t.Errorf("family cite after intro-only commit: cache %q, want hit", famAfter.Result.Cache)
	}
	if famAfter.Result.Text != fam.Result.Text {
		t.Errorf("surviving entry changed text:\n got %s\nwant %s", famAfter.Result.Text, fam.Result.Text)
	}
	// Touched relation: recomputed against the new data.
	var introAfter citeResponse
	_, body = postJSON(t, client, ts.URL+"/cite", citeRequest{Query: introQuery})
	if err := json.Unmarshal(body, &introAfter); err != nil {
		t.Fatal(err)
	}
	if introAfter.Result.Cache != "miss" {
		t.Errorf("intro cite after intro commit: cache %q, want miss", introAfter.Result.Cache)
	}
	if introAfter.Result.Pin.SHA256 == intro.Result.Pin.SHA256 {
		t.Error("intro digest unchanged after new tuple — stale result")
	}

	stats := srv.CacheStats()
	if stats.Invalidated < 1 {
		t.Errorf("invalidated = %d, want >= 1 (the intro entry)", stats.Invalidated)
	}
	// The counters surface on /metrics for the CI smoke to assert on.
	metrics := getText(t, client, ts.URL+"/metrics")
	if !strings.Contains(metrics, "citeserved_result_cache_evicted_total") ||
		!strings.Contains(metrics, "citeserved_plan_cache_entries") {
		t.Error("delta-invalidation counters missing from /metrics")
	}
}

// TestIngestScopedPurge pins the delta rule on /ingest: ingesting into
// Family evicts only Family-reading entries, and a batch that applies no
// changes (deleting an absent tuple) evicts nothing at all.
func TestIngestScopedPurge(t *testing.T) {
	_, ts := paperServer(t, Options{})
	client := ts.Client()

	for _, q := range []string{paperQuery, introQuery} {
		if resp, body := postJSON(t, client, ts.URL+"/cite", citeRequest{Query: q}); resp.StatusCode != http.StatusOK {
			t.Fatalf("prime %q: %d: %s", q, resp.StatusCode, body)
		}
	}

	resp, body := postJSON(t, client, ts.URL+"/ingest", map[string]any{
		"relation": "Family", "insert": [][]any{{77, "Amylin", "A1"}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: %d: %s", resp.StatusCode, body)
	}

	var intro, fam citeResponse
	_, body = postJSON(t, client, ts.URL+"/cite", citeRequest{Query: introQuery})
	if err := json.Unmarshal(body, &intro); err != nil {
		t.Fatal(err)
	}
	if intro.Result.Cache != "hit" {
		t.Errorf("intro cite after Family ingest: cache %q, want hit (scoped purge)", intro.Result.Cache)
	}
	_, body = postJSON(t, client, ts.URL+"/cite", citeRequest{Query: paperQuery})
	if err := json.Unmarshal(body, &fam); err != nil {
		t.Fatal(err)
	}
	if fam.Result.Cache != "miss" {
		t.Errorf("family cite after Family ingest: cache %q, want miss", fam.Result.Cache)
	}

	// A no-op delta: deleting an absent tuple applies nothing, so even
	// the Family entry just recomputed stays warm.
	resp, body = postJSON(t, client, ts.URL+"/ingest", map[string]any{
		"relation": "Family", "delete": [][]any{{999, "None", "X"}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("no-op ingest: %d: %s", resp.StatusCode, body)
	}
	_, body = postJSON(t, client, ts.URL+"/cite", citeRequest{Query: paperQuery})
	if err := json.Unmarshal(body, &fam); err != nil {
		t.Fatal(err)
	}
	if fam.Result.Cache != "hit" {
		t.Errorf("family cite after no-op ingest: cache %q, want hit", fam.Result.Cache)
	}
}

// TestParallelismOptionSameCitation: Options.Parallelism bounds how many
// members of a batch cite at once and nothing else, so a sequential
// server answers head and versioned batches with the same citations as a
// default one.
func TestParallelismOptionSameCitation(t *testing.T) {
	_, def := paperServer(t, Options{})
	_, seq := paperServer(t, Options{Parallelism: 1})
	batch := citeRequest{Queries: []string{paperQuery, "Q(Text) :- FamilyIntro(FID, Text)"}}
	for _, path := range []string{"/cite", "/cite?version=1"} {
		var texts [2]string
		for i, ts := range []*httptest.Server{def, seq} {
			resp, body := postJSON(t, ts.Client(), ts.URL+path, batch)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s: status %d: %s", path, resp.StatusCode, body)
			}
			var out citeResponse
			if err := json.Unmarshal(body, &out); err != nil {
				t.Fatal(err)
			}
			if len(out.Results) != len(batch.Queries) {
				t.Fatalf("%s: %d results, want %d", path, len(out.Results), len(batch.Queries))
			}
			for _, r := range out.Results {
				if r.Error != "" {
					t.Fatalf("%s: batch member failed: %s", path, r.Error)
				}
				texts[i] += r.Text + "\n"
			}
		}
		if texts[0] != texts[1] {
			t.Errorf("%s: parallelism 1 cites %q, default %q", path, texts[1], texts[0])
		}
	}
}

// postOversized posts bodies of prefix, filler bytes past the 1 MiB
// body limit, and suffix, and checks each reply: 413 with a JSON error,
// and the connection closed. A body 2 MiB long is one net/http would
// not drain anyway; one just 64 KiB over the limit it would drain and
// keep the connection for, unless the limit reached net/http's own
// writer.
func postOversized(t *testing.T, path, prefix string, filler byte, suffix string) {
	t.Helper()
	_, ts := paperServer(t, Options{})
	client := ts.Client()
	client.Timeout = 10 * time.Second
	for _, n := range []int{defaultBodyLimit + 64<<10, 2 << 20} {
		body := prefix + strings.Repeat(string(filler), n) + suffix
		resp, err := client.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		out, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s, %d filler bytes: status %d, want 413: %s", path, n, resp.StatusCode, out)
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(out, &e); err != nil || !strings.Contains(e.Error, "too large") {
			t.Errorf("%s, %d filler bytes: error body %q (%v)", path, n, out, err)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s, %d filler bytes: Content-Type %q", path, n, ct)
		}
		if !resp.Close {
			t.Errorf("%s, %d filler bytes: connection kept open after an oversized body", path, n)
		}
	}
}

func TestOversizedCiteBody(t *testing.T) {
	postOversized(t, "/cite", `{"query": "`, 'a', `"}`)
	// Past a complete value, an oversized run of whitespace is still too
	// large, not trailing data.
	postOversized(t, "/cite", `{"query": "`+paperQuery+`"}`, ' ', "")
}

func TestOversizedIngestBody(t *testing.T) {
	postOversized(t, "/ingest", `{"relation": "Family", "insert": [[501, "`, 'a', `", "x"]]}`)
}

func TestOversizedCommitBody(t *testing.T) {
	postOversized(t, "/commit", `{"message": "`, 'a', `"}`)
}
