package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// expoSample is one parsed sample line of a Prometheus text scrape.
type expoSample struct {
	name   string
	labels map[string]string
	value  float64
	line   string
}

var (
	expoHelpRe   = regexp.MustCompile(`^# HELP ([a-zA-Z_:][a-zA-Z0-9_:]*) .+$`)
	expoTypeRe   = regexp.MustCompile(`^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (counter|gauge|histogram|summary|untyped)$`)
	expoSampleRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{(.*)\})? (\S+)$`)
	expoLabelRe  = regexp.MustCompile(`^([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"(,|$)`)
)

// labelKey serializes a sample's labels (minus the excluded names) into
// a canonical comparison key.
func labelKey(labels map[string]string, exclude ...string) string {
	skip := make(map[string]bool, len(exclude))
	for _, e := range exclude {
		skip[e] = true
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		if !skip[k] {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		b.WriteString(k)
		b.WriteString("=")
		b.WriteString(labels[k])
		b.WriteString(",")
	}
	return b.String()
}

// parseExposition validates a /metrics scrape the way a strict scraper
// would — HELP before TYPE before samples, legal metric and label
// syntax, parsable values, histogram sample names resolving to a
// declared histogram family — and returns the samples plus the family
// type map.
func parseExposition(t *testing.T, text string) ([]expoSample, map[string]string) {
	t.Helper()
	types := make(map[string]string)
	helps := make(map[string]bool)
	var samples []expoSample
	for _, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if m := expoHelpRe.FindStringSubmatch(line); m != nil {
			if helps[m[1]] {
				t.Errorf("duplicate HELP for %s", m[1])
			}
			helps[m[1]] = true
			continue
		}
		if m := expoTypeRe.FindStringSubmatch(line); m != nil {
			if !helps[m[1]] {
				t.Errorf("TYPE without preceding HELP: %s", line)
			}
			if _, dup := types[m[1]]; dup {
				t.Errorf("duplicate TYPE for %s", m[1])
			}
			types[m[1]] = m[2]
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Errorf("malformed comment line %q", line)
			continue
		}
		m := expoSampleRe.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("unparsable sample line %q", line)
			continue
		}
		s := expoSample{name: m[1], labels: make(map[string]string), line: line}
		if expoFamily(m[1], types) == "" {
			t.Errorf("sample %q belongs to no declared family", line)
		}
		for rest := m[2]; rest != ""; {
			lm := expoLabelRe.FindStringSubmatch(rest)
			if lm == nil {
				t.Errorf("bad label syntax in %q (at %q)", line, rest)
				break
			}
			s.labels[lm[1]] = lm[2]
			rest = rest[len(lm[0]):]
		}
		v, err := strconv.ParseFloat(m[3], 64)
		if err != nil && m[3] != "+Inf" && m[3] != "NaN" {
			t.Errorf("bad value in %q: %v", line, err)
		}
		s.value = v
		samples = append(samples, s)
	}
	return samples, types
}

// expoFamily resolves a sample name to its declared family: the name
// itself, or — for _bucket/_sum/_count suffixes — a declared histogram
// base name.
func expoFamily(name string, types map[string]string) string {
	if types[name] != "" {
		return name
	}
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if base := strings.TrimSuffix(name, suf); base != name && types[base] == "histogram" {
			return base
		}
	}
	return ""
}

// checkHistogramFamilies asserts every histogram family is internally
// consistent: buckets cumulative in le order, the +Inf bucket equal to
// the _count sample, and a _sum present per label set.
func checkHistogramFamilies(t *testing.T, samples []expoSample, types map[string]string) {
	t.Helper()
	type series struct {
		buckets map[string]float64 // le -> cumulative count
		sum     *float64
		count   *float64
	}
	groups := make(map[string]*series) // family + labelKey(minus le)
	get := func(fam string, labels map[string]string) *series {
		k := fam + "|" + labelKey(labels, "le")
		g := groups[k]
		if g == nil {
			g = &series{buckets: make(map[string]float64)}
			groups[k] = g
		}
		return g
	}
	for _, s := range samples {
		switch {
		case strings.HasSuffix(s.name, "_bucket") && types[strings.TrimSuffix(s.name, "_bucket")] == "histogram":
			fam := strings.TrimSuffix(s.name, "_bucket")
			le, ok := s.labels["le"]
			if !ok {
				t.Errorf("bucket sample without le label: %s", s.line)
				continue
			}
			get(fam, s.labels).buckets[le] = s.value
		case strings.HasSuffix(s.name, "_sum") && types[strings.TrimSuffix(s.name, "_sum")] == "histogram":
			v := s.value
			get(strings.TrimSuffix(s.name, "_sum"), s.labels).sum = &v
		case strings.HasSuffix(s.name, "_count") && types[strings.TrimSuffix(s.name, "_count")] == "histogram":
			v := s.value
			get(strings.TrimSuffix(s.name, "_count"), s.labels).count = &v
		}
	}
	if len(groups) == 0 {
		t.Fatal("no histogram series found")
	}
	for key, g := range groups {
		if g.sum == nil || g.count == nil {
			t.Errorf("%s: histogram series missing _sum or _count", key)
			continue
		}
		inf, ok := g.buckets["+Inf"]
		if !ok {
			t.Errorf("%s: histogram series missing +Inf bucket", key)
			continue
		}
		if inf != *g.count {
			t.Errorf("%s: +Inf bucket %g != count %g", key, inf, *g.count)
		}
		les := make([]float64, 0, len(g.buckets))
		for le := range g.buckets {
			if le == "+Inf" {
				continue
			}
			f, err := strconv.ParseFloat(le, 64)
			if err != nil {
				t.Errorf("%s: unparsable le %q", key, le)
				continue
			}
			les = append(les, f)
		}
		sort.Float64s(les)
		prev := 0.0
		for _, le := range les {
			v := g.buckets[strconv.FormatFloat(le, 'g', -1, 64)]
			if v < prev {
				t.Errorf("%s: bucket le=%g count %g below previous %g (not cumulative)", key, le, v, prev)
			}
			prev = v
		}
		if inf < prev {
			t.Errorf("%s: +Inf bucket %g below largest finite bucket %g", key, inf, prev)
		}
	}
}

func TestMetricsExposition(t *testing.T) {
	_, ts := paperServer(t, Options{})
	client := ts.Client()
	// Traffic: a cache miss, a hit, and a parse failure, so counters,
	// error counters, latency histograms and stage histograms all have
	// observations.
	postJSON(t, client, ts.URL+"/cite", citeRequest{Query: paperQuery})
	postJSON(t, client, ts.URL+"/cite", citeRequest{Query: paperQuery})
	postJSON(t, client, ts.URL+"/cite", citeRequest{Query: "not a query ("})

	scrape1 := getText(t, client, ts.URL+"/metrics")
	samples1, types1 := parseExposition(t, scrape1)
	checkHistogramFamilies(t, samples1, types1)

	if types1["citeserved_request_duration_seconds"] != "histogram" {
		t.Fatalf("citeserved_request_duration_seconds must be a histogram, got %q", types1["citeserved_request_duration_seconds"])
	}
	find := func(samples []expoSample, name string, want map[string]string) *expoSample {
		for i, s := range samples {
			if s.name != name {
				continue
			}
			ok := true
			for k, v := range want {
				if s.labels[k] != v {
					ok = false
					break
				}
			}
			if ok {
				return &samples[i]
			}
		}
		return nil
	}
	if s := find(samples1, "citeserved_request_duration_seconds_count", map[string]string{"endpoint": "cite"}); s == nil || s.value < 3 {
		t.Errorf("cite duration histogram must count the 3 requests: %+v", s)
	}
	if s := find(samples1, "citeserved_build_info", nil); s == nil {
		t.Error("missing citeserved_build_info")
	} else {
		if s.labels["version"] != Version || s.labels["go_version"] != runtime.Version() || s.value != 1 {
			t.Errorf("bad build info: %s", s.line)
		}
	}
	for _, stage := range []string{"parse", "rewrite", "eval", "fixity", "cache", "encode"} {
		if s := find(samples1, "citeserved_stage_duration_seconds_count", map[string]string{"stage": stage}); s == nil || s.value < 1 {
			t.Errorf("stage %q has no duration observations", stage)
		}
	}
	for _, name := range []string{"citeserved_goroutines", "citeserved_heap_alloc_bytes", "citeserved_gc_cycles_total"} {
		if find(samples1, name, nil) == nil {
			t.Errorf("missing runtime metric %s", name)
		}
	}
	if s := find(samples1, "citeserved_request_errors_total", map[string]string{"endpoint": "cite"}); s == nil || s.value < 1 {
		t.Errorf("the parse failure must count as an error: %+v", s)
	}

	// Counters must be monotonic across scrapes (histogram buckets,
	// sums and counts included — they are cumulative too).
	postJSON(t, client, ts.URL+"/cite", citeRequest{Query: paperQuery})
	scrape2 := getText(t, client, ts.URL+"/metrics")
	samples2, types2 := parseExposition(t, scrape2)
	checkHistogramFamilies(t, samples2, types2)
	for _, s1 := range samples1 {
		fam := expoFamily(s1.name, types1)
		if types1[fam] != "counter" && types1[fam] != "histogram" {
			continue
		}
		s2 := find(samples2, s1.name, s1.labels)
		if s2 == nil {
			t.Errorf("counter series vanished between scrapes: %s", s1.line)
			continue
		}
		if s2.value < s1.value {
			t.Errorf("counter went backwards: %q %g -> %g", s1.line, s1.value, s2.value)
		}
	}
}

// TestRewriteMemoMetrics: /metrics exposes the rewriting memo's hits,
// misses, entries and evictions. Two constants of one shape are one miss
// and one hit; the series are three counters and a gauge outside the
// cache kept/evicted families.
func TestRewriteMemoMetrics(t *testing.T) {
	_, ts := paperServer(t, Options{})
	client := ts.Client()
	for _, fid := range []int{11, 12} {
		resp, body := postJSON(t, client, ts.URL+"/cite", citeRequest{Query: fmt.Sprintf("Q(FName) :- Family(%d, FName, Desc)", fid)})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("cite %d: %d %s", fid, resp.StatusCode, body)
		}
	}
	samples, types := parseExposition(t, getText(t, client, ts.URL+"/metrics"))
	got := map[string]float64{}
	for _, s := range samples {
		got[s.name] = s.value
	}
	for name, want := range map[string]struct {
		typ   string
		value float64
	}{
		"citeserved_rewrite_memo_hits_total":    {"counter", 1},
		"citeserved_rewrite_memo_misses_total":  {"counter", 1},
		"citeserved_rewrite_memo_entries":       {"gauge", 1},
		"citeserved_rewrite_memo_evicted_total": {"counter", 0},
	} {
		if types[name] != want.typ {
			t.Errorf("%s: type %q, want %q", name, types[name], want.typ)
		}
		if got[name] != want.value {
			t.Errorf("%s = %g, want %g", name, got[name], want.value)
		}
	}
}

func TestStatusRecorderFlush(t *testing.T) {
	rr := httptest.NewRecorder()
	rec := &statusRecorder{ResponseWriter: rr, status: http.StatusOK}
	// The wrapper must satisfy http.Flusher and forward to the wrapped
	// writer, or streaming handlers behind instrument() silently buffer.
	var f http.Flusher = rec
	f.Flush()
	if !rr.Flushed {
		t.Fatal("statusRecorder.Flush must pass through to the underlying writer")
	}
}

// TestPlanCacheMetrics: /metrics exposes the prepared-plan cache's live
// state beside the other generator caches': its entries as a gauge and
// its evictions at the entry bound as a counter. A cite fills plans; a
// Family ingest and a second cite compile the rewritings' plans over the
// new Family content beside the old ones, so the entries grow, and no
// cache reaches its bound, so nothing is evicted. The columnar block set
// shows the same way: the relations holding a block as a gauge, and its
// evictions and the blocks built, rebuilds included, as counters. It is
// process-wide, so the test first collects what earlier tests left in
// it, and then its few blocks evict none. The cites after the ingest
// encode Family's key column by extending the block the cites before it
// read, since the ingest only appended: columns extended move with the
// columns encoded.
func TestPlanCacheMetrics(t *testing.T) {
	runtime.GC()
	_, ts := paperServer(t, Options{})
	client := ts.Client()
	cite := func() {
		t.Helper()
		// The second query probes Family's key column, so its block
		// encodes that column.
		for _, q := range []string{paperQuery, "Q(FName) :- Family(11, FName, Desc)"} {
			if resp, body := postJSON(t, client, ts.URL+"/cite", citeRequest{Query: q}); resp.StatusCode != http.StatusOK {
				t.Fatalf("cite: %d %s", resp.StatusCode, body)
			}
		}
	}
	const entries, evicted = "citeserved_plan_cache_entries", "citeserved_plan_cache_evicted_total"
	const blocksBuilt, blocksEvicted, blocksHeld = "citeserved_columnar_blocks_total", "citeserved_columnar_blocks_evicted_total", "citeserved_columnar_blocks_held"
	const colsEncoded, colsExtended = "citeserved_columnar_columns_encoded_total", "citeserved_columnar_columns_extended_total"
	series := []struct{ name, typ, help string }{
		{entries, "gauge", "Prepared plans "},
		{evicted, "counter", "Prepared plans "},
		{blocksBuilt, "counter", "Dictionary-encoded columnar blocks built for frozen relations, rebuilds of evicted blocks included."},
		{blocksEvicted, "counter", "Columnar blocks evicted at the block set's bound."},
		{blocksHeld, "gauge", "Frozen relations holding a columnar block."},
		{colsEncoded, "counter", "Columns encoded into columnar blocks, extensions of a predecessor's included."},
		{colsExtended, "counter", "Columns encoded by extending "},
	}
	scrape := func() map[string]float64 {
		t.Helper()
		text := getText(t, client, ts.URL+"/metrics")
		samples, types := parseExposition(t, text)
		for _, c := range series {
			if types[c.name] != c.typ {
				t.Errorf("%s: type %q, want %s", c.name, types[c.name], c.typ)
			}
			if !strings.Contains(text, "# HELP "+c.name+" "+c.help) {
				t.Errorf("%s: no HELP line starting %q", c.name, c.help)
			}
		}
		got := map[string]float64{}
		for _, s := range samples {
			got[s.name] = s.value
		}
		return got
	}
	start := scrape()
	cite()
	first := scrape()
	if first[entries] < 1 {
		t.Errorf("%s = %g after a cite, want >= 1", entries, first[entries])
	}
	if resp, body := postJSON(t, client, ts.URL+"/ingest", map[string]any{
		"relation": "Family", "insert": [][]any{{77, "Amylin", "A1"}},
	}); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: %d %s", resp.StatusCode, body)
	}
	cite()
	second := scrape()
	if second[entries] <= first[entries] {
		t.Errorf("%s = %g after a Family ingest and a cite, want more than %g", entries, second[entries], first[entries])
	}
	for _, c := range []string{"view", "atom", "plan"} {
		if name := "citeserved_" + c + "_cache_evicted_total"; second[name] != 0 {
			t.Errorf("%s = %g below the bound, want 0", name, second[name])
		}
	}
	if second[blocksBuilt] <= start[blocksBuilt] || second[blocksHeld] < 1 {
		t.Errorf("%s %g -> %g and %s %g after two cites, want blocks built and held",
			blocksBuilt, start[blocksBuilt], second[blocksBuilt], blocksHeld, second[blocksHeld])
	}
	if n := second[blocksEvicted] - start[blocksEvicted]; n != 0 {
		t.Errorf("%s rose by %g below the bound, want 0", blocksEvicted, n)
	}
	enc, ext := second[colsEncoded]-first[colsEncoded], second[colsExtended]-first[colsExtended]
	if ext < 1 || enc < ext {
		t.Errorf("after an append to Family and a cite, %s rose by %g and %s by %g; want at least 1 extended, and no more than encoded",
			colsExtended, ext, colsEncoded, enc)
	}
}
