package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"slices"
	"strings"
	"text/tabwriter"
)

// endToEndMetrics are the metrics BENCHMARK.json bounds, reported by
// every workload. They are the deterministic ones: on a shared machine
// the wall-clock metrics moved 10–35% between runs of the same code, so
// they are reported among the per-layer metrics, ungated. The test
// keeps both lists equal to BENCHMARK.json.
var endToEndMetrics = []string{"setup_s", "allocs_per_op", "alloc_kb_per_op", "heap_live_mb"}

// perLayerMetrics are the metrics a --trace 1 run reports.
var perLayerMetrics = []string{
	"throughput_ops_s", "cite_p50_ms", "cite_p99_ms", "cpu_us_per_op",
	"server.result_cache_hit_ratio", "server.coalesced_ratio", "server.capacity_evictions",
	"server.admission_wait_us", "server.request_us", "server.client_overhead_us",
	"citation.kept_per_commit", "citation.evicted_per_commit",
	"storage.columnar_blocks_built", "storage.columnar_mb_built",
	"durable.wal_bytes_per_tuple", "durable.wal_segments",
	"runtime.gc_cycles_per_kop", "runtime.gc_pause_ms_per_kop",
	"citation.heap_kb_per_distinct_query", "fixity.heap_kb_per_commit",
	"server.self_us", "server.admission_us", "server.cache_us", "cq.parse_us",
	"citation.rewrite_us", "citation.views_us", "citation.plan_us", "citation.policy_us",
	"eval.eval_us", "fixity.pin_us", "fixity.digest_us",
	"rewrite.candidates_per_cite", "rewrite.yield_ratio",
	"eval.tuples_examined_per_cite", "eval.yield_ratio", "eval.branches_per_cite", "eval.pruned_per_cite",
	"storage.columnar_steps_per_cite", "policy.atoms_resolved_per_cite",
	"citation.view_hit_ratio", "citation.plan_hit_ratio", "citation.branch_hit_ratio",
	"load.unattributed_pct", "load.trace_overhead_pct",
}

// benchDef is the part of BENCHMARK.json the comparator reads.
type benchDef struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBench(path string) (map[string]metricDef, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var def benchDef
	if err := json.Unmarshal(b, &def); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	defs := make(map[string]metricDef)
	for _, d := range append(def.PerLayer, def.EndToEnd...) {
		defs[d.Name] = d
	}
	return defs, nil
}

// readRecords reads a results file written by -out.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}

// series collects each (workload, metric) pair's values across runs.
type series map[[2]string][]float64

func collect(recs []record) series {
	s := make(series)
	for _, r := range recs {
		for name, m := range r.Metrics {
			k := [2]string{r.Workload, name}
			s[k] = append(s[k], m.Value)
		}
	}
	return s
}

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	return ratio(q3-q1, math.Abs(q2))
}

// verdict judges next against base under d's bound: "worse" when the
// median got worse by more than the bound, "better" when it improved by
// more than either side's spread, else "within bound". A pair whose
// spread on either side exceeds the bound is "unresolved", unless every
// next run reads better (or every one worse) than every base run.
func verdict(d metricDef, base, next []float64) string {
	if d.Bound == 0 {
		return "-"
	}
	lower := d.Better != "higher"
	better := func(x, y float64) bool { return x != y && (x < y) == lower }
	worst := func(xs []float64) float64 {
		if lower {
			return slices.Max(xs)
		}
		return slices.Min(xs)
	}
	best := func(xs []float64) float64 {
		if lower {
			return slices.Min(xs)
		}
		return slices.Max(xs)
	}
	if spread(base) > d.Bound || spread(next) > d.Bound {
		switch {
		case better(worst(next), best(base)):
			return "better"
		case better(worst(base), best(next)):
			return "worse"
		}
		return "unresolved"
	}
	// change is the share by which next's median is worse than base's.
	change := ratio(median(next)-median(base), math.Abs(median(base)))
	if !lower {
		change = -change
	}
	switch {
	case change > d.Bound:
		return "worse"
	case -change > max(spread(base), spread(next)):
		return "better"
	}
	return "within bound"
}

// runCompare prints, per (workload, metric), each side's median and
// quartiles, the ratio of the medians and a verdict under the bounds in
// bench. With next empty it prints base's medians and quartiles alone.
func runCompare(w io.Writer, bench, base, next string) error {
	defs, err := readBench(bench)
	if err != nil {
		return err
	}
	baseRecs, err := readRecords(base)
	if err != nil {
		return err
	}
	bs := collect(baseRecs)
	var ns series
	if next != "" {
		nextRecs, err := readRecords(next)
		if err != nil {
			return err
		}
		ns = collect(nextRecs)
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	if ns == nil {
		fmt.Fprintln(tw, "workload\tmetric\tunit\tmedian [q1, q3] (n)\tIQR/median")
	} else {
		fmt.Fprintf(tw, "workload\tmetric\tunit\tbase: median [q1, q3] (n)\tnew: median [q1, q3] (n)\tnew/base\tverdict (bound)\n")
	}
	keys := slices.SortedFunc(maps.Keys(bs), func(a, b [2]string) int {
		if a[0] != b[0] {
			return workloadOrder(a[0]) - workloadOrder(b[0])
		}
		if c := metricOrder(a[1]) - metricOrder(b[1]); c != 0 {
			return c
		}
		return strings.Compare(a[1], b[1])
	})
	for _, k := range keys {
		d := defs[k[1]]
		unit := unitOf(baseRecs, k)
		if ns == nil {
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%.2f%%\n", k[0], k[1], unit, describe(bs[k]), 100*spread(bs[k]))
			continue
		}
		nv, ok := ns[k]
		if !ok {
			continue
		}
		bound := "-"
		if d.Bound > 0 {
			bound = fmt.Sprintf("%.0f%%", 100*d.Bound)
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%.4f\t%s (%s)\n", k[0], k[1], unit, describe(bs[k]), describe(nv),
			ratio(median(nv), median(bs[k])), verdict(d, bs[k], nv), bound)
	}
	return tw.Flush()
}

func describe(xs []float64) string {
	q1, q2, q3 := quartiles(xs)
	return fmt.Sprintf("%.6g [%.6g, %.6g] (%d)", q2, q1, q3, len(xs))
}

func unitOf(recs []record, k [2]string) string {
	for _, r := range recs {
		if r.Workload == k[0] {
			if m, ok := r.Metrics[k[1]]; ok {
				return m.Unit
			}
		}
	}
	return ""
}

func workloadOrder(name string) int {
	for i, w := range workloads {
		if w.Name == name {
			return i
		}
	}
	return len(workloads)
}

// metricOrder sorts end-to-end metrics first, then per-layer ones, then
// the workload-specific extras by name.
func metricOrder(name string) int {
	if i := slices.Index(endToEndMetrics, name); i >= 0 {
		return i
	}
	if i := slices.Index(perLayerMetrics, name); i >= 0 {
		return len(endToEndMetrics) + i
	}
	return len(endToEndMetrics) + len(perLayerMetrics)
}
