package server

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/cq"
	"repro/internal/fixity"
	"repro/internal/qstats"
	"repro/internal/trace"
)

// queryStatsReport mirrors the /debug/querystats envelope for tests.
type queryStatsReport struct {
	K            int                  `json:"k"`
	Tracked      int                  `json:"tracked"`
	Generation   int64                `json:"generation"`
	Since        time.Time            `json:"since"`
	Evicted      int64                `json:"evicted_total"`
	Observations int64                `json:"observations_total"`
	Sort         string               `json:"sort"`
	Rows         []qstats.RowSnapshot `json:"rows"`
}

// waitForCalls polls /debug/querystats until the single expected row
// reports the given call count — observeTrace runs in the handler's
// defer, which can lag the client's view of the response by a beat.
func waitForCalls(t *testing.T, client *http.Client, url string, calls int64) queryStatsReport {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	var rep queryStatsReport
	for time.Now().Before(deadline) {
		rep = queryStatsReport{}
		getJSON(t, client, url, &rep)
		if len(rep.Rows) > 0 && rep.Rows[0].Calls >= calls {
			return rep
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("query stats never reached %d calls: %+v", calls, rep)
	return rep
}

// sumAttr totals an integer span attribute over a whole snapshot tree.
func sumAttr(sp trace.SpanSnapshot, key string) int64 {
	var total int64
	if v, ok := sp.Attrs[key]; ok {
		if f, ok := v.(float64); ok { // JSON numbers decode as float64
			total += int64(f)
		}
	}
	for _, c := range sp.Children {
		total += sumAttr(c, key)
	}
	return total
}

// TestQueryStatsEndToEnd is the PR's acceptance scenario: N requests
// over two distinct constant bindings of one query shape must produce
// exactly one fingerprint row whose calls, distinct-constant count,
// cumulative tuples examined and cache hit/miss split match the
// workload exactly.
func TestQueryStatsEndToEnd(t *testing.T) {
	_, ts := paperServer(t, Options{TraceEcho: true})
	client := ts.Client()

	// Two bindings of the same shape, each cited twice: the second
	// request of each binding is a result-cache hit.
	q11 := "Q(FName) :- Family(11, FName, Desc)"
	q12 := "Q(FName) :- Family(12, FName, Desc)"
	var tuplesFromTraces int64
	for _, q := range []string{q11, q11, q12, q12} {
		resp, body := postJSON(t, client, ts.URL+"/cite?trace=1", citeRequest{Query: q})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("cite %q: status %d: %s", q, resp.StatusCode, body)
		}
		var out citeResponse
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		if out.Trace == nil {
			t.Fatalf("trace echo missing for %q", q)
		}
		// The echoed trace is the same tree qstats reduces, so summing
		// its tuples_examined attrs reproduces the store's ground truth.
		tuplesFromTraces += sumAttr(out.Trace.Root, "tuples_examined")
	}

	rep := waitForCalls(t, client, ts.URL+"/debug/querystats", 4)
	if rep.Tracked != 1 || len(rep.Rows) != 1 {
		t.Fatalf("want exactly one fingerprint row, got tracked=%d rows=%+v", rep.Tracked, rep.Rows)
	}
	row := rep.Rows[0]
	if row.Calls != 4 {
		t.Errorf("calls %d, want 4", row.Calls)
	}
	if row.DistinctConsts != 2 {
		t.Errorf("distinct consts %d, want 2", row.DistinctConsts)
	}
	if row.ResultMisses != 2 || row.ResultHits != 2 || row.ResultCoalesced != 0 {
		t.Errorf("cache split hits=%d misses=%d coalesced=%d, want 2/2/0",
			row.ResultHits, row.ResultMisses, row.ResultCoalesced)
	}
	if row.TuplesExamined != tuplesFromTraces {
		t.Errorf("tuples examined %d, traces say %d", row.TuplesExamined, tuplesFromTraces)
	}
	if tuplesFromTraces == 0 {
		t.Error("workload should have examined tuples (fixture not empty)")
	}
	if row.Fingerprint != "Q(v0) :- Family($1, v0, v1)" {
		t.Errorf("fingerprint %q: constants must be normalized", row.Fingerprint)
	}
	if row.TotalMS <= 0 || row.MeanMS <= 0 || row.P95MS <= 0 {
		t.Errorf("latency columns must be populated: %+v", row)
	}
	if row.RespBytes <= 0 {
		t.Errorf("response bytes %d, want > 0", row.RespBytes)
	}
	if rep.Observations != 4 || rep.Evicted != 0 || rep.K != qstats.DefaultK {
		t.Errorf("store accounting: %+v", rep)
	}

	// The /metrics surface agrees.
	scrape := getText(t, client, ts.URL+"/metrics")
	for _, want := range []string{
		"citeserved_querystats_tracked 1",
		"citeserved_querystats_evicted_total 0",
		"citeserved_querystats_observations_total 4",
	} {
		if !strings.Contains(scrape, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
}

func TestQueryStatsSortLimitAndErrors(t *testing.T) {
	srv, ts := paperServer(t, Options{})
	client := ts.Client()
	// Seed two fingerprints directly so sorting is deterministic.
	srv.QueryStats().Observe("cheap", 0, qstats.Costs{Calls: 5, WallNS: 1000})
	srv.QueryStats().Observe("expensive", 0, qstats.Costs{Calls: 1, WallNS: int64(time.Second)})

	var rep queryStatsReport
	getJSON(t, client, ts.URL+"/debug/querystats", &rep)
	if rep.Sort != qstats.SortTotalTime || len(rep.Rows) != 2 || rep.Rows[0].Fingerprint != "expensive" {
		t.Fatalf("default sort wrong: %+v", rep)
	}
	rep = queryStatsReport{}
	getJSON(t, client, ts.URL+"/debug/querystats?sort=calls&limit=1", &rep)
	if rep.Sort != "calls" || len(rep.Rows) != 1 || rep.Rows[0].Fingerprint != "cheap" {
		t.Fatalf("sort=calls limit=1 wrong: %+v", rep)
	}
	if resp := getJSON(t, client, ts.URL+"/debug/querystats?sort=bogus", nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("invalid sort must answer 400, got %d", resp.StatusCode)
	}
	if resp := getJSON(t, client, ts.URL+"/debug/querystats?limit=0", nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("invalid limit must answer 400, got %d", resp.StatusCode)
	}

	// Reset is the embedder's API; the generation stamp lets pollers
	// (citestat -watch) detect it.
	before := rep.Generation
	srv.QueryStats().Reset()
	rep = queryStatsReport{}
	getJSON(t, client, ts.URL+"/debug/querystats", &rep)
	if rep.Generation <= before || len(rep.Rows) != 0 {
		t.Fatalf("reset must bump the generation and clear rows: %+v", rep)
	}
}

func TestQueryStatsDisabled(t *testing.T) {
	srv, ts := paperServer(t, Options{QueryStats: -1})
	if srv.QueryStats() != nil {
		t.Fatal("QueryStats < 0 must disable the store")
	}
	if resp := getJSON(t, ts.Client(), ts.URL+"/debug/querystats", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("disabled store must answer 404, got %d", resp.StatusCode)
	}
	// Serving still works without the store.
	resp, body := postJSON(t, ts.Client(), ts.URL+"/cite", citeRequest{Query: paperQuery})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cite with qstats off: %d: %s", resp.StatusCode, body)
	}
	if strings.Contains(getText(t, ts.Client(), ts.URL+"/metrics"), "citeserved_querystats_tracked") {
		t.Error("disabled store must not export querystats metrics")
	}
}

func TestDebugTracesFilters(t *testing.T) {
	_, ts := paperServer(t, Options{})
	client := ts.Client()
	// A miss (full engine pipeline) then a hit (cache span only).
	postJSON(t, client, ts.URL+"/cite", citeRequest{Query: paperQuery})
	postJSON(t, client, ts.URL+"/cite", citeRequest{Query: paperQuery})

	var out struct {
		Count  int                   `json:"count"`
		Traces []trace.TraceSnapshot `json:"traces"`
	}
	// stage=eval keeps only the miss trace.
	getJSON(t, client, ts.URL+"/debug/traces?stage=eval", &out)
	if out.Count != 1 {
		t.Fatalf("stage=eval: want 1 trace, got %d", out.Count)
	}
	if _, ok := spanNames(out.Traces[0].Root)["eval"]; !ok {
		t.Fatal("stage filter returned a trace without the stage")
	}
	// stage=cache matches both.
	out.Traces = nil
	getJSON(t, client, ts.URL+"/debug/traces?stage=cache", &out)
	if out.Count != 2 {
		t.Fatalf("stage=cache: want 2 traces, got %d", out.Count)
	}
	// A threshold far above any test request filters everything out; the
	// response is an empty list, not null.
	out.Traces = nil
	body := getText(t, client, ts.URL+"/debug/traces?min_ms=60000")
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatal(err)
	}
	if out.Count != 0 || out.Traces == nil {
		t.Fatalf("min_ms=60000: want empty list, got %s", body)
	}
	// min_ms=0 keeps everything; composing filters works.
	out.Traces = nil
	getJSON(t, client, ts.URL+"/debug/traces?min_ms=0&stage=eval&limit=1", &out)
	if out.Count != 1 {
		t.Fatalf("composed filters: want 1, got %d", out.Count)
	}
	// Bad parameters answer 400.
	if resp := getJSON(t, client, ts.URL+"/debug/traces?min_ms=-1", nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("negative min_ms must answer 400, got %d", resp.StatusCode)
	}
	if resp := getJSON(t, client, ts.URL+"/debug/traces?min_ms=abc", nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("non-numeric min_ms must answer 400, got %d", resp.StatusCode)
	}
}

func TestEscapeLabel(t *testing.T) {
	cases := map[string]string{
		"plain":                  "plain",
		`back\slash`:             `back\\slash`,
		`quo"te`:                 `quo\"te`,
		"new\nline":              `new\nline`,
		"tab\tstays":             "tab\tstays", // the spec escapes only \, " and newline
		`all"three` + "\n" + `\`: `all\"three\n\\`,
	}
	for in, want := range cases {
		if got := escapeLabel(in); got != want {
			t.Errorf("escapeLabel(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestMetricsLabelEscapingExposition smuggles every character the text
// format escapes into a rendered label (via the build version) and runs
// the strict exposition parser over the scrape: hostile label values
// must not corrupt the format.
func TestMetricsLabelEscapingExposition(t *testing.T) {
	old := Version
	Version = "v\"1\\2\n3"
	defer func() { Version = old }()

	_, ts := paperServer(t, Options{})
	postJSON(t, ts.Client(), ts.URL+"/cite", citeRequest{Query: paperQuery})
	scrape := getText(t, ts.Client(), ts.URL+"/metrics")
	samples, types := parseExposition(t, scrape)
	checkHistogramFamilies(t, samples, types)
	found := false
	for _, s := range samples {
		if s.name == "citeserved_build_info" {
			found = true
			if want := `v\"1\\2\n3`; s.labels["version"] != want {
				t.Errorf("escaped version label %q, want %q", s.labels["version"], want)
			}
		}
	}
	if !found {
		t.Fatal("build_info sample missing")
	}
}

// TestAdmissionWaitMetric asserts the always-on admission-wait
// histogram appears on /metrics with one observation per admitted /cite
// request, alongside the inflight gauge.
func TestAdmissionWaitMetric(t *testing.T) {
	_, ts := paperServer(t, Options{})
	client := ts.Client()
	postJSON(t, client, ts.URL+"/cite", citeRequest{Query: paperQuery})
	postJSON(t, client, ts.URL+"/cite", citeRequest{Query: paperQuery})
	scrape := getText(t, client, ts.URL+"/metrics")
	samples, types := parseExposition(t, scrape)
	checkHistogramFamilies(t, samples, types)
	if types["citeserved_admission_wait_seconds"] != "histogram" {
		t.Fatalf("citeserved_admission_wait_seconds type %q, want histogram", types["citeserved_admission_wait_seconds"])
	}
	var count float64 = -1
	for _, s := range samples {
		if s.name == "citeserved_admission_wait_seconds_count" {
			count = s.value
		}
	}
	if count != 2 {
		t.Fatalf("admission wait count %g, want 2", count)
	}
	if !strings.Contains(scrape, "citeserved_inflight_requests") {
		t.Fatal("inflight gauge missing")
	}
}

// TestQueryStatsFingerprintFromEngineParse: a computed citation's query
// is fingerprinted from the engine's parse of its text (Result.Query),
// not by parsing the text again. A citer that hands back a stand-in
// parse of another shape makes the statistics list the stand-in's
// fingerprint, for the computing request and for a later hit alike.
func TestQueryStatsFingerprintFromEngineParse(t *testing.T) {
	srv, ts := paperServer(t, Options{})
	client := ts.Client()
	standIn := cq.MustParse("StandIn(X) :- Other(X, 'k')")
	inner := srv.citer
	srv.citer = func(ctx context.Context, queries []string, v fixity.Version) ([]*core.Citation, []error) {
		cites, errs := inner(ctx, queries, v)
		for _, c := range cites {
			if c != nil {
				r := *c.Result
				r.Query = standIn
				c.Result = &r
			}
		}
		return cites, errs
	}
	for range 2 {
		if resp, body := postJSON(t, client, ts.URL+"/cite", citeRequest{Query: paperQuery}); resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
	}
	rep := waitForCalls(t, client, ts.URL+"/debug/querystats", 2)
	want, _ := standIn.Fingerprint()
	if len(rep.Rows) != 1 || rep.Rows[0].Fingerprint != want || rep.Rows[0].ResultMisses != 1 || rep.Rows[0].ResultHits != 1 {
		t.Fatalf("rows %+v; want one row of fingerprint %q with one miss and one hit", rep.Rows, want)
	}
}
