package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fixity"
	"repro/internal/spec"
	"repro/internal/storage"
	"repro/internal/trace"
	"repro/internal/value"
)

// citeResponse is the POST /cite reply as encoding/json renders it.
// Result is set for single-query requests, Results for batches. Version
// is the latest committed store version for head requests, or the
// requested version for ?version= (time-travel) requests. Trace is the
// request's span tree, echoed when the server has TraceEcho enabled and
// the request asked with ?trace=1.
//
// The server writes replies around cached bytes (envelope.go); this
// struct, encoded by writeJSON, is the reference those bytes must equal,
// and the shape the tests decode replies into.
type citeResponse struct {
	Epoch   int64                `json:"epoch"`
	Version int                  `json:"version"`
	Result  *CiteResult          `json:"result,omitempty"`
	Results []CiteResult         `json:"results,omitempty"`
	Trace   *trace.TraceSnapshot `json:"trace,omitempty"`
}

// specialText holds what JSON escapes (HTML-sensitive characters,
// U+2028, U+2029, a quote, a backslash, a tab) and non-ASCII text.
const specialText = "<Fish & Chips> \u2028 Ωμέγα 漢字 \"q\" \\ \t\u2029 Zoë"

// Queries of the byte-identity suite over the GtoPdb system. qSpecial's
// query text, and so its pin and text rendering, holds specialText;
// qCacheText's holds the very member the server splices into a cached
// result.
var (
	qFamily    = gtopdbQuery(1, 7)
	qTarget    = gtopdbQuery(3, 5)
	qSpecial   = "Q(FID) :- Family(FID, '" + specialText + "', Desc)"
	qCacheText = `Q(FName) :- Family(FID, FName, '"cache": "hit"')`
	qOlder     = gtopdbQuery(0, 3)
)

// gtopdbGolden is the GtoPdb system citeload serves, plus one family
// named specialText, described as the "cache" member, committed as
// version 2.
func gtopdbGolden(tb testing.TB) *core.System {
	tb.Helper()
	sys := gtopdbSystem(tb, 40)
	fam := storage.Tuple{value.Int(9001), value.String(specialText), value.String(`"cache": "hit"`)}
	if _, err := sys.Insert("Family", []storage.Tuple{fam}); err != nil {
		tb.Fatal(err)
	}
	sys.Commit("release 2")
	return sys
}

// paperGolden is testdata/paper.dcs with a committee member named
// specialText, committed as version 2, so a citation record carries it.
func paperGolden(tb testing.TB) *core.System {
	tb.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "..", "testdata", "paper.dcs"))
	if err != nil {
		tb.Fatal(err)
	}
	sys, err := spec.Load(string(raw))
	if err != nil {
		tb.Fatal(err)
	}
	sys.Commit("test base")
	if _, err := sys.Insert("Committee", []storage.Tuple{{value.Int(11), value.String(specialText)}}); err != nil {
		tb.Fatal(err)
	}
	sys.Commit("release 2")
	return sys
}

// goldenServer serves a system through a Server whose citer records
// every citation the engine computes, so the reference reply renders
// exactly the values the server encoded.
type goldenServer struct {
	srv *Server
	h   http.Handler

	mu       sync.Mutex
	computed map[string]goldenCite // by version and query
	block    map[string]chan struct{}
}

type goldenCite struct {
	c   *core.Citation
	err error
}

func goldenKey(v fixity.Version, q string) string { return strconv.Itoa(int(v)) + "\x00" + q }

func newGoldenServer(sys *core.System) *goldenServer {
	g := &goldenServer{
		srv:      New(sys, Options{TraceEcho: true}),
		computed: make(map[string]goldenCite),
		block:    make(map[string]chan struct{}),
	}
	inner := g.srv.citer
	g.srv.citer = func(ctx context.Context, queries []string, v fixity.Version) ([]*core.Citation, []error) {
		g.mu.Lock()
		var gates []chan struct{}
		for _, q := range queries {
			if gate := g.block[q]; gate != nil {
				gates = append(gates, gate)
			}
		}
		g.mu.Unlock()
		for _, gate := range gates {
			<-gate
		}
		cites, errs := inner(ctx, queries, v)
		g.mu.Lock()
		for i, q := range queries {
			g.computed[goldenKey(v, q)] = goldenCite{cites[i], errs[i]}
		}
		g.mu.Unlock()
		return cites, errs
	}
	g.h = g.srv.Handler()
	return g
}

// serve posts body to path and returns the recorded reply.
func (g *goldenServer) serve(path, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	g.h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
	return rec
}

// reference renders the reply writeJSON gives for the request, with
// cache as each position's expected outcome ("" for a failed position)
// and, for ?trace=1, the span tree the reply echoed.
func (g *goldenServer) reference(t *testing.T, path, body string, cache []string, got []byte) *httptest.ResponseRecorder {
	t.Helper()
	var req citeRequest
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		t.Fatal(err)
	}
	queries, single := req.Queries, req.Query != ""
	if single {
		queries = []string{req.Query}
	}
	u, err := url.Parse(path)
	if err != nil {
		t.Fatal(err)
	}
	// The citer sees version 0 for a head request; the envelope names the
	// latest committed version.
	var version fixity.Version
	epoch, latest := g.srv.sys.Versions()
	resp := citeResponse{Epoch: epoch, Version: int(latest)}
	if vs := u.Query().Get("version"); vs != "" {
		n, _ := strconv.Atoi(vs)
		version, resp.Version = fixity.Version(n), n
	}
	results := make([]CiteResult, len(queries))
	for i, q := range queries {
		g.mu.Lock()
		c, ok := g.computed[goldenKey(version, q)]
		g.mu.Unlock()
		switch {
		case !ok:
			t.Fatalf("query %q at version %d was never computed", q, version)
		case cache[i] == "":
			results[i] = CiteResult{Query: q, Error: c.err.Error()}
		default:
			results[i] = NewCiteResult(q, c.c)
			results[i].Cache = cache[i]
		}
	}
	if single {
		resp.Result = &results[0]
	} else {
		resp.Results = results
	}
	if u.Query().Get("trace") == "1" {
		var echoed citeResponse
		if err := json.Unmarshal(got, &echoed); err != nil || echoed.Trace == nil {
			t.Fatalf("no trace echoed (%v):\n%s", err, got)
		}
		resp.Trace = echoed.Trace
	}
	ref := httptest.NewRecorder()
	writeJSON(ref, http.StatusOK, resp)
	return ref
}

// goldenCase is one request of the byte-identity suite, in order: the
// cache outcomes depend on the requests before it.
type goldenCase struct {
	name, path, body string
	cache            []string
}

func single(q string) string {
	b, _ := json.Marshal(citeRequest{Query: q})
	return string(b)
}

func batch(qs ...string) string {
	b, _ := json.Marshal(citeRequest{Queries: qs})
	return string(b)
}

// gtopdbCases run against gtopdbGolden.
var gtopdbCases = []goldenCase{
	{"single miss", "/cite", single(qFamily), []string{"miss"}},
	{"single hit", "/cite", single(qFamily), []string{"hit"}},
	{"escaped values miss", "/cite", single(qSpecial), []string{"miss"}},
	{"escaped values hit", "/cite", single(qSpecial), []string{"hit"}},
	{"cache member in query text miss", "/cite", single(qCacheText), []string{"miss"}},
	{"cache member in query text hit", "/cite", single(qCacheText), []string{"hit"}},
	{"version miss", "/cite?version=1", single(qFamily), []string{"miss"}},
	{"version hit", "/cite?version=1", single(qFamily), []string{"hit"}},
	{"batch with a failure and a duplicate", "/cite",
		batch(qTarget, "Q(X) :- Nope(X)", qTarget, qSpecial, "Q(X :- (((", qCacheText),
		[]string{"miss", "", "coalesced", "hit", "", "hit"}},
	{"batch all hits", "/cite", batch(qFamily, qSpecial), []string{"hit", "hit"}},
	{"trace echo", "/cite?trace=1", single(qSpecial), []string{"hit"}},
	{"trace echo miss", "/cite?trace=1", single(qOlder), []string{"miss"}},
	{"trace echo versioned batch", "/cite?version=1&trace=1", batch(qFamily, qTarget, qTarget), []string{"hit", "miss", "coalesced"}},
}

// paperCases run against paperGolden, whose records carry specialText.
var paperCases = []goldenCase{
	{"single miss", "/cite", single(paperQuery), []string{"miss"}},
	{"single hit", "/cite", single(paperQuery), []string{"hit"}},
	{"version miss", "/cite?version=1", single(paperQuery), []string{"miss"}},
	{"version hit", "/cite?version=1", single(paperQuery), []string{"hit"}},
	{"batch with a failure and a duplicate", "/cite",
		batch(paperQuery, "Q(X) :- Nope(X)", "QI(Text) :- FamilyIntro(FID, Text)", "QI(Text) :- FamilyIntro(FID, Text)"),
		[]string{"hit", "", "miss", "coalesced"}},
	{"trace echo", "/cite?trace=1", single(paperQuery), []string{"hit"}},
}

// checkGolden compares a reply with the reference, bytes and headers.
func checkGolden(t *testing.T, got, want *httptest.ResponseRecorder) {
	t.Helper()
	if got.Code != http.StatusOK {
		t.Fatalf("status %d: %s", got.Code, got.Body.Bytes())
	}
	if g, w := got.Header().Get("Content-Type"), want.Header().Get("Content-Type"); g != w {
		t.Errorf("Content-Type %q, want %q", g, w)
	}
	if !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
		t.Errorf("reply differs from the reflective encoding\ngot:\n%s\nwant:\n%s", got.Body.Bytes(), want.Body.Bytes())
	}
}

// TestCiteRepliesByteIdentical checks every /cite reply shape against
// writeJSON over the reply struct: the encoding the server used before
// it wrote replies around cached bytes.
func TestCiteRepliesByteIdentical(t *testing.T) {
	g := newGoldenServer(gtopdbGolden(t))
	for _, suite := range []struct {
		name  string
		g     *goldenServer
		cases []goldenCase
	}{
		{"gtopdb", g, gtopdbCases},
		{"paper", newGoldenServer(paperGolden(t)), paperCases},
	} {
		for _, c := range suite.cases {
			t.Run(suite.name+"/"+c.name, func(t *testing.T) {
				got := suite.g.serve(c.path, c.body)
				checkGolden(t, got, suite.g.reference(t, c.path, c.body, c.cache, got.Body.Bytes()))
			})
		}
	}

	t.Run("gtopdb/coalesced", func(t *testing.T) {
		// The owner's computation waits at the gate until a second
		// request has joined it.
		q := gtopdbQuery(2, 11)
		gate := make(chan struct{})
		g.mu.Lock()
		g.block[q] = gate
		g.mu.Unlock()
		replies := make([]*httptest.ResponseRecorder, 2)
		var wg sync.WaitGroup
		start := func(i int) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				replies[i] = g.serve("/cite", single(q))
			}()
		}
		before := g.srv.CacheStats()
		start(0)
		for g.srv.CacheStats().Misses == before.Misses {
			time.Sleep(time.Millisecond)
		}
		start(1)
		for g.srv.CacheStats().Coalesced == before.Coalesced {
			time.Sleep(time.Millisecond)
		}
		close(gate)
		wg.Wait()
		for i, outcome := range []string{"miss", "coalesced"} {
			got := replies[i]
			checkGolden(t, got, g.reference(t, "/cite", single(q), []string{outcome}, got.Body.Bytes()))
		}
	})
}

// FuzzCiteHandler sends arbitrary bodies, ?version= and ?trace= values
// through the server's handler. Whatever the input: no panic and no 500,
// every reply is JSON with Content-Type application/json, and every 200
// single-query reply decodes to the fields NewCiteResult gives for a
// fresh citation of the query at the version its pin names.
func FuzzCiteHandler(f *testing.F) {
	for _, c := range append(gtopdbCases, paperCases...) {
		u, _ := url.Parse(c.path)
		f.Add(c.body, u.Query().Get("version"), u.Query().Get("trace"))
	}
	f.Add(`{"query": ""}`, "", "")
	f.Add(`{"queries": []}`, "", "1")
	f.Add(`{"query": "Q(X) :- Family(X, Y, Z)"} {}`, "0", "")
	f.Add(`{"query": "Q(X) :- Family(X, Y, Z)", "extra": 1}`, "2", "1")
	f.Add(`{"queries": ["Q(X) :- Family(X, Y, Z)", ""]}`, "99", "")

	g := newGoldenServer(gtopdbGolden(f))
	sys := g.srv.System()
	f.Fuzz(func(t *testing.T, body, version, traceFlag string) {
		params := url.Values{}
		if version != "" {
			params.Set("version", version)
		}
		if traceFlag != "" {
			params.Set("trace", traceFlag)
		}
		path := "/cite"
		if len(params) > 0 {
			path += "?" + params.Encode()
		}
		rec := g.serve(path, body)
		if rec.Code == http.StatusInternalServerError {
			t.Fatalf("500 for body %q at %s: %s", body, path, rec.Body.Bytes())
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Fatalf("Content-Type %q for body %q at %s", ct, body, path)
		}
		if !json.Valid(rec.Body.Bytes()) {
			t.Fatalf("reply is not JSON for body %q at %s:\n%s", body, path, rec.Body.Bytes())
		}
		var req citeRequest
		if rec.Code != http.StatusOK || json.Unmarshal([]byte(body), &req) != nil || req.Query == "" {
			return
		}
		var got citeResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil || got.Result == nil || got.Result.Pin == nil {
			t.Fatalf("200 single reply without a pinned result (%v):\n%s", err, rec.Body.Bytes())
		}
		c, err := sys.CiteContext(context.Background(), req.Query,
			core.AtVersion(fixity.Version(got.Result.Pin.Version)), core.WithParallelism(1))
		if err != nil {
			t.Fatalf("reference cite of %q: %v", req.Query, err)
		}
		got.Result.Cache = ""
		gotJSON, _ := json.Marshal(got.Result)
		wantJSON, _ := json.Marshal(NewCiteResult(req.Query, c))
		if !bytes.Equal(gotJSON, wantJSON) {
			t.Fatalf("reply result differs from a fresh citation of %q\ngot:  %s\nwant: %s", req.Query, gotJSON, wantJSON)
		}
	})
}
