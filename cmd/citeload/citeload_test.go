package main

import (
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"slices"
	"strings"
	"testing"
)

// fingerprint renders a stream as text, one op per line.
func (st stream) fingerprint() string {
	var b strings.Builder
	for _, o := range st.Ops {
		fmt.Fprintf(&b, "%s %s %s\n", o.Kind, o.Path, o.Body)
	}
	fmt.Fprintf(&b, "sample %v\n", st.Sample)
	return b.String()
}

// tiny shrinks a workload so all four run in seconds under -race.
func tiny(w workload) workload {
	w.Families = 40
	w.Ops, w.TracedOps = 200, 100
	return w
}

func TestStreamDeterministic(t *testing.T) {
	ds := dataShape{Families: 100, Targets: 400}
	for _, w := range workloads {
		a := buildStream(w, ds, 7, 500).fingerprint()
		b := buildStream(w, ds, 7, 500).fingerprint()
		c := buildStream(w, ds, 8, 500).fingerprint()
		if a != b {
			t.Errorf("%s: seed 7 gave two different streams", w.Name)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 gave the same stream", w.Name)
		}
	}
}

func TestStreamShape(t *testing.T) {
	ds := dataShape{Families: 100, Targets: 400}
	cold := buildStream(workloads[1], ds, 1, 400)
	seen := make(map[string]bool)
	for _, o := range cold.Ops {
		if seen[o.Query] {
			t.Fatalf("cold repeats %q", o.Query)
		}
		seen[o.Query] = true
	}
	history := buildStream(workloads[2], ds, 1, 640)
	pairs := make(map[string]bool)
	for _, o := range history.Ops {
		key := o.Path + " " + o.Query
		if pairs[key] {
			t.Fatalf("history repeats %s", key)
		}
		pairs[key] = true
	}
	mixed := buildStream(workloads[3], ds, 1, 4000)
	var kinds [3]int
	for _, o := range mixed.Ops {
		kinds[o.Kind]++
	}
	if kinds != [3]int{3600, 300, 100} {
		t.Errorf("mixed cites/ingests/commits = %v, want [3600 300 100]", kinds)
	}
}

func TestTailQuantile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want string
	}{
		{19, ""}, {20, "p50"}, {99, "p50"}, {100, "p90"}, {199, "p90"}, {200, "p95"},
		{999, "p95"}, {1000, "p99"}, {9999, "p99"}, {10000, "p99.9"},
	} {
		if _, got := tailQuantile(c.n); got != c.want {
			t.Errorf("tailQuantile(%d) = %q, want %q", c.n, got, c.want)
		}
	}
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := quantile(xs, 0.9); got != 9 {
		t.Errorf("nearest-rank p90 of 1..10 = %v, want 9", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if q1, q2, q3 := quartiles(xs); q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

func TestParseExposition(t *testing.T) {
	f, err := os.Open("testdata/metrics.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	e, err := parseExposition(f)
	if err != nil {
		t.Fatal(err)
	}
	for series, want := range map[string]float64{
		citeCount:      3,
		citeSum:        0.00102916,
		cacheHits:      2,
		cacheMisses:    1,
		columnarDict:   8668,
		walSegments:    1,
		admissionCount: 3,
		`citeserved_request_duration_seconds_bucket{endpoint="cite",le="+Inf"}`: 3,
		`citeserved_build_info{version="dev",go_version="go1.24.0"}`:            1,
		`citeserved_wal_fsync_mode{mode="on-commit"}`:                           1,
	} {
		if got, ok := e[series]; !ok || got != want {
			t.Errorf("%s = %v (present %v), want %v", series, got, ok, want)
		}
	}
	if _, err := parseExposition(strings.NewReader("citeserved_x{a=\"b\" 1\n")); err == nil {
		t.Error("unterminated labels parsed")
	}
}

func TestVerdict(t *testing.T) {
	d := metricDef{Name: "allocs_per_op", Better: "lower", Bound: 0.05}
	steady := []float64{100, 100.5, 101, 99.5, 100}
	for _, c := range []struct {
		next []float64
		want string
	}{
		{[]float64{101, 101.5, 100.5, 102, 101}, "within bound"},
		{[]float64{110, 110.5, 111, 109.5, 110}, "worse"},
		{[]float64{90, 90.5, 91, 89.5, 90}, "better"},
		{[]float64{80, 120, 100, 60, 140}, "unresolved"},
	} {
		if got := verdict(d, steady, c.next); got != c.want {
			t.Errorf("verdict(%v) = %q, want %q", c.next, got, c.want)
		}
	}
	up := metricDef{Name: "throughput_ops_s", Better: "higher", Bound: 0.1}
	if got := verdict(up, steady, []float64{120, 121, 119, 120, 120}); got != "better" {
		t.Errorf("higher-is-better improvement = %q, want better", got)
	}
}

// TestBenchmarkDefinition keeps the metric lists equal to BENCHMARK.json.
func TestBenchmarkDefinition(t *testing.T) {
	b, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def benchDef
	if err := json.Unmarshal(b, &def); err != nil {
		t.Fatal(err)
	}
	names := func(ds []metricDef) []string {
		var out []string
		for _, d := range ds {
			out = append(out, d.Name)
		}
		return out
	}
	if got := names(def.EndToEnd); !slices.Equal(got, endToEndMetrics) {
		t.Errorf("BENCHMARK.json end_to_end = %v, program reports %v", got, endToEndMetrics)
	}
	if got := names(def.PerLayer); !slices.Equal(got, perLayerMetrics) {
		t.Errorf("BENCHMARK.json per_layer = %v, program reports %v", got, perLayerMetrics)
	}
}

// TestSmoke runs every workload at a tiny scale, traced, and checks that
// nothing failed or mismatched and that every metric BENCHMARK.json
// names is reported with its unit.
func TestSmoke(t *testing.T) {
	defs, err := readBench("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	cfg := config{seed: 3, seconds: 1, trace: true, tmp: t.TempDir()}
	for _, w := range workloads {
		rec, err := run(tiny(w), cfg)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if rec.Failed != 0 || rec.Mismatches != 0 || !rec.Correct {
			t.Errorf("%s: failed %d, mismatches %d of %d ops", w.Name, rec.Failed, rec.Mismatches, rec.Attempted)
		}
		for _, name := range slices.Sorted(maps.Keys(defs)) {
			m, ok := rec.Metrics[name]
			if !ok {
				t.Errorf("%s: metric %s missing", w.Name, name)
			} else if m.Unit != defs[name].Unit {
				t.Errorf("%s: %s in %q, BENCHMARK.json says %q", w.Name, name, m.Unit, defs[name].Unit)
			}
		}
		if w.Durable {
			for _, name := range []string{"recovery_s", "commit_p50_ms", "ingest_p50_ms", "core.commit_us"} {
				if _, ok := rec.Metrics[name]; !ok {
					t.Errorf("mixed: metric %s missing", name)
				}
			}
		}
	}
}
