package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/trace"
)

// spanNames flattens a span snapshot tree into its distinct names.
func spanNames(sp trace.SpanSnapshot) map[string]trace.SpanSnapshot {
	out := make(map[string]trace.SpanSnapshot)
	var walk func(s trace.SpanSnapshot)
	walk = func(s trace.SpanSnapshot) {
		if _, seen := out[s.Name]; !seen {
			out[s.Name] = s
		}
		for _, c := range s.Children {
			walk(c)
		}
	}
	walk(sp)
	return out
}

// requireStages asserts the span tree names the core pipeline stages,
// each with a non-zero duration.
func requireStages(t *testing.T, root trace.SpanSnapshot, stages ...string) {
	t.Helper()
	names := spanNames(root)
	for _, want := range stages {
		sp, ok := names[want]
		if !ok {
			got := make([]string, 0, len(names))
			for n := range names {
				got = append(got, n)
			}
			t.Fatalf("span tree missing stage %q (have %v)", want, got)
		}
		if sp.DurUS <= 0 {
			t.Errorf("stage %q has zero duration", want)
		}
	}
}

func TestTraceEcho(t *testing.T) {
	_, ts := paperServer(t, Options{TraceEcho: true})
	client := ts.Client()
	resp, body := postJSON(t, client, ts.URL+"/cite?trace=1", citeRequest{Query: paperQuery})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out citeResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("bad response: %v\n%s", err, body)
	}
	if out.Trace == nil {
		t.Fatalf("?trace=1 with TraceEcho must echo the span tree: %s", body)
	}
	if len(out.Trace.ID) != 16 {
		t.Errorf("trace ID %q: want 16 hex chars", out.Trace.ID)
	}
	if out.Trace.Root.Name != "cite" {
		t.Errorf("root span %q, want cite", out.Trace.Root.Name)
	}
	// The acceptance taxonomy: a fresh cite's trace names the server's
	// stages from the handler's first byte (validate, decode, admission,
	// cache) and the engine's parse, rewrite, eval and fixity stages,
	// each with time attributed. The echo is taken before encoding, so
	// it has no encode span.
	requireStages(t, out.Trace.Root, "validate", "decode", "admission", "cache", "parse", "rewrite", "eval", "fixity")
	// The root's children start with the handler's own stages, in order.
	var first []string
	for _, c := range out.Trace.Root.Children[:min(4, len(out.Trace.Root.Children))] {
		first = append(first, c.Name)
	}
	if got := strings.Join(first, ","); got != "validate,decode,admission,cache" {
		t.Errorf("root children start %s, want validate,decode,admission,cache", got)
	}

	// A hit's echo carries the server stages alone.
	_, body = postJSON(t, client, ts.URL+"/cite?trace=1", citeRequest{Query: paperQuery})
	out = citeResponse{}
	if err := json.Unmarshal(body, &out); err != nil || out.Trace == nil {
		t.Fatalf("bad hit echo (%v): %s", err, body)
	}
	requireStages(t, out.Trace.Root, "validate", "decode", "admission", "cache")
	if _, ok := spanNames(out.Trace.Root)["parse"]; ok {
		t.Error("a cache hit must not run the engine")
	}

	// Without ?trace=1 the envelope stays clean.
	_, body = postJSON(t, client, ts.URL+"/cite", citeRequest{Query: paperQuery})
	out = citeResponse{}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Trace != nil {
		t.Error("trace echoed without ?trace=1")
	}
}

// TestRejectedCiteTraced checks that a /cite request rejected before
// citing is still traced from its first byte and observed exactly once:
// it enters the trace ring and the stage histograms, but adds no query
// statistics, having no per-query outcome.
func TestRejectedCiteTraced(t *testing.T) {
	srv, ts := paperServer(t, Options{})
	client := ts.Client()
	for _, tc := range []struct {
		name, path, body string
		status           int
		last             string // the last span the request opened
	}{
		{"bad version", "/cite?version=x", `{"query": "` + paperQuery + `"}`, http.StatusBadRequest, "validate"},
		{"unknown version", "/cite?version=99", `{"query": "` + paperQuery + `"}`, http.StatusNotFound, "validate"},
		{"malformed body", "/cite", `{"query": `, http.StatusBadRequest, "decode"},
		{"empty body", "/cite", `{}`, http.StatusBadRequest, "decode"},
	} {
		before := srv.ring.Len()
		resp, err := client.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Fatalf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.status)
		}
		// The deferred observation runs as the handler returns, after the
		// reply is written.
		deadline := time.Now().Add(5 * time.Second)
		for srv.ring.Len() == before && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if got := srv.ring.Len() - before; got != 1 {
			t.Fatalf("%s: %d traces observed, want 1", tc.name, got)
		}
		tr := srv.ring.Snapshot(1)[0].Root
		if n := len(tr.Children); n == 0 || tr.Children[n-1].Name != tc.last {
			t.Errorf("%s: spans %+v, want the last to be %s", tc.name, tr.Children, tc.last)
		}
	}
	if n := srv.QueryStats().Stats().Observations; n != 0 {
		t.Errorf("rejected requests added %d query statistics observations, want 0", n)
	}
	for _, stage := range []string{"validate", "decode"} {
		if h := srv.metrics.stages.Get(stage); h == nil || h.Snapshot().Count == 0 {
			t.Errorf("stage histogram %q observed nothing", stage)
		}
	}
}

func TestTraceEchoRequiresOptIn(t *testing.T) {
	_, ts := paperServer(t, Options{})
	_, body := postJSON(t, ts.Client(), ts.URL+"/cite?trace=1", citeRequest{Query: paperQuery})
	var out citeResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Trace != nil {
		t.Fatalf("?trace=1 must be ignored unless the server opts in: %s", body)
	}
}

func TestDebugTraces(t *testing.T) {
	_, ts := paperServer(t, Options{})
	client := ts.Client()
	postJSON(t, client, ts.URL+"/cite", citeRequest{Query: paperQuery})
	postJSON(t, client, ts.URL+"/cite", citeRequest{Query: paperQuery})

	var out struct {
		Count  int                   `json:"count"`
		Traces []trace.TraceSnapshot `json:"traces"`
	}
	resp := getJSON(t, client, ts.URL+"/debug/traces", &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if out.Count < 2 || len(out.Traces) != out.Count {
		t.Fatalf("want >= 2 traces, got count=%d len=%d", out.Count, len(out.Traces))
	}
	// Most recent first; the second request was a cache hit, so the
	// first (miss) trace — at the back of the two — carries the engine
	// stages.
	newest := out.Traces[0]
	if newest.Root.Name != "cite" || newest.DurUS <= 0 {
		t.Errorf("newest trace malformed: name=%q dur=%d", newest.Root.Name, newest.DurUS)
	}
	requireStages(t, out.Traces[1].Root, "parse", "rewrite", "eval", "fixity")
	names := spanNames(out.Traces[0].Root)
	if _, ok := names["cache"]; !ok {
		t.Error("hit trace must still carry the cache span")
	}

	out.Traces = nil
	getJSON(t, client, ts.URL+"/debug/traces?limit=1", &out)
	if out.Count != 1 || len(out.Traces) != 1 {
		t.Fatalf("limit=1 must cap the response, got %d", out.Count)
	}
}

func TestDebugTracesDisabled(t *testing.T) {
	_, ts := paperServer(t, Options{TraceRing: -1})
	resp := getJSON(t, ts.Client(), ts.URL+"/debug/traces", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("disabled ring must answer 404, got %d", resp.StatusCode)
	}
}

func TestDebugPprof(t *testing.T) {
	_, ts := paperServer(t, Options{})
	body := getText(t, ts.Client(), ts.URL+"/debug/pprof/goroutine?debug=1")
	if !strings.Contains(body, "goroutine profile:") {
		t.Fatalf("pprof goroutine dump not served:\n%.200s", body)
	}
}

func TestSlowQueryLog(t *testing.T) {
	var buf bytes.Buffer
	_, ts := paperServer(t, Options{SlowQuery: time.Nanosecond, SlowQueryLog: &buf})
	client := ts.Client()
	resp, body := postJSON(t, client, ts.URL+"/cite", citeRequest{Query: paperQuery})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	line := buf.String()
	if line == "" {
		t.Fatal("a request over the threshold must produce a slow-query line")
	}
	var e trace.SlowEntry
	if err := json.Unmarshal([]byte(strings.SplitN(line, "\n", 2)[0]), &e); err != nil {
		t.Fatalf("slow-query line is not JSON: %v\n%s", err, line)
	}
	if e.Endpoint != "cite" || len(e.TraceID) != 16 || e.DurUS <= 0 {
		t.Errorf("bad slow entry: %+v", e)
	}
	if len(e.Queries) != 1 || e.Queries[0] != paperQuery {
		t.Errorf("slow entry must carry the queries: %+v", e.Queries)
	}
	requireStages(t, e.Spans, "parse", "rewrite", "eval", "fixity", "encode")
}

func TestTraceSamplingOff(t *testing.T) {
	var buf bytes.Buffer
	_, ts := paperServer(t, Options{
		TraceSample:  -1,
		TraceEcho:    true,
		SlowQuery:    time.Nanosecond,
		SlowQueryLog: &buf,
	})
	client := ts.Client()
	_, body := postJSON(t, client, ts.URL+"/cite?trace=1", citeRequest{Query: paperQuery})
	var out citeResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Result == nil || out.Result.Error != "" {
		t.Fatalf("citation must still work untraced: %s", body)
	}
	if out.Trace != nil {
		t.Error("sampling off must not produce an echo")
	}
	var traces struct {
		Count int `json:"count"`
	}
	getJSON(t, client, ts.URL+"/debug/traces", &traces)
	if traces.Count != 0 {
		t.Errorf("sampling off must keep the ring empty, got %d traces", traces.Count)
	}
	if buf.Len() != 0 {
		t.Errorf("sampling off must keep the slow-query log empty: %s", buf.String())
	}
}
