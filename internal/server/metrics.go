package server

import (
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/citation"
	"repro/internal/storage"
	"repro/internal/trace"
)

// Version is the build version string, stamped by the release build via
//
//	go build -ldflags "-X repro/internal/server.Version=v1.2.3"
//
// and surfaced by citeserved_build_info, /healthz and citeserved
// -version. "dev" marks unstamped builds.
var Version = "dev"

// endpointStats accumulates per-endpoint request counters and a native
// latency histogram (buckets from 100µs to 10s), so dashboards get tail
// quantiles, not just the mean.
type endpointStats struct {
	requests atomic.Int64
	errors   atomic.Int64 // responses with status >= 400
	latency  *trace.Histogram
}

// serverMetrics is the server's counter set, exposed on GET /metrics in
// Prometheus text exposition format. Everything is atomics — recording a
// request never takes a lock.
type serverMetrics struct {
	endpoints map[string]*endpointStats // fixed key set, read-only after init
	inflight  atomic.Int64              // requests currently being handled
	rejected  atomic.Int64              // admission-control rejections (503)
	timeouts  atomic.Int64              // per-request deadline expiries (504)
	// stages holds per-pipeline-stage engine-time histograms, fed from
	// finished request traces (one observation per ended span).
	stages *trace.HistogramVec
	// admissionWait is the time /cite requests spend queueing on the
	// in-flight semaphore (rejections included, measured until the
	// deadline fired). Always on, like the endpoint latencies — the
	// admission *span* exists only on sampled requests.
	admissionWait *trace.Histogram
}

func newServerMetrics(endpoints []string) *serverMetrics {
	m := &serverMetrics{
		endpoints:     make(map[string]*endpointStats, len(endpoints)),
		stages:        trace.NewHistogramVec(nil),
		admissionWait: trace.NewHistogram(nil),
	}
	for _, e := range endpoints {
		m.endpoints[e] = &endpointStats{latency: trace.NewHistogram(nil)}
	}
	return m
}

// statusRecorder captures the response status for the error counter.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(status int) {
	r.status = status
	r.ResponseWriter.WriteHeader(status)
}

// Unwrap exposes the underlying writer, to http.ResponseController and
// to decodeBody, which hands it to http.MaxBytesReader.
func (r *statusRecorder) Unwrap() http.ResponseWriter { return r.ResponseWriter }

// Flush passes through to the underlying writer's http.Flusher, so
// streaming endpoints behind the instrumentation wrapper can still push
// partial responses to the client.
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// instrument wraps an endpoint handler with request/error/latency
// accounting under the endpoint's label.
func (m *serverMetrics) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	stats := m.endpoints[endpoint]
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		m.inflight.Add(1)
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		// Deferred so a panicking handler (recovered per-connection by
		// net/http) cannot leak the inflight gauge or skip accounting.
		defer func() {
			m.inflight.Add(-1)
			stats.requests.Add(1)
			stats.latency.Observe(time.Since(start))
			if rec.status >= 400 {
				stats.errors.Add(1)
			}
		}()
		h(rec, r)
	}
}

// labelEscaper rewrites a label value for the Prometheus text exposition
// format, which escapes exactly backslash, double-quote and newline
// inside quoted label values. Go's %q is close but not conformant — it
// escapes every control character (a tab becomes the two bytes \t,
// which a strict scraper rejects), so label values are escaped here and
// rendered with plain %s inside hand-written quotes.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// escapeLabel returns the label value escaped per the text exposition
// spec. Any string — a query fingerprint, an fsync mode, a version
// string — is safe to interpolate after this.
func escapeLabel(v string) string { return labelEscaper.Replace(v) }

// writeHistogram renders one label's histogram as a Prometheus family
// member: cumulative _bucket series (with the mandatory +Inf bucket),
// then _sum and _count.
func writeHistogram(w *strings.Builder, name, label, labelValue string, s trace.HistogramSnapshot) {
	lv := escapeLabel(labelValue)
	for i, bound := range s.Bounds {
		fmt.Fprintf(w, "%s_bucket{%s=\"%s\",le=\"%s\"} %d\n",
			name, label, lv, strconv.FormatFloat(bound, 'g', -1, 64), s.Cumulative[i])
	}
	fmt.Fprintf(w, "%s_bucket{%s=\"%s\",le=\"+Inf\"} %d\n", name, label, lv, s.Count)
	fmt.Fprintf(w, "%s_sum{%s=\"%s\"} %g\n", name, label, lv, s.Sum)
	fmt.Fprintf(w, "%s_count{%s=\"%s\"} %d\n", name, label, lv, s.Count)
}

// writeBareHistogram renders an unlabeled histogram family.
func writeBareHistogram(w *strings.Builder, name string, s trace.HistogramSnapshot) {
	for i, bound := range s.Bounds {
		fmt.Fprintf(w, "%s_bucket{le=\"%s\"} %d\n",
			name, strconv.FormatFloat(bound, 'g', -1, 64), s.Cumulative[i])
	}
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, s.Count)
	fmt.Fprintf(w, "%s_sum %g\n", name, s.Sum)
	fmt.Fprintf(w, "%s_count %d\n", name, s.Count)
}

// render writes the metrics in Prometheus text exposition format. The
// gauge values that belong to other components (cache counters, store
// version, epoch) are passed in by the server.
func (m *serverMetrics) render(w *strings.Builder, s *Server) {
	counter := func(name, help string) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
	}
	gauge := func(name, help string) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n", name, help, name)
	}
	histogram := func(name, help string) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	}
	names := make([]string, 0, len(m.endpoints))
	for e := range m.endpoints {
		names = append(names, e)
	}
	sort.Strings(names)

	counter("citeserved_requests_total", "Requests handled, by endpoint.")
	for _, e := range names {
		fmt.Fprintf(w, "citeserved_requests_total{endpoint=\"%s\"} %d\n", escapeLabel(e), m.endpoints[e].requests.Load())
	}
	counter("citeserved_request_errors_total", "Responses with status >= 400, by endpoint.")
	for _, e := range names {
		fmt.Fprintf(w, "citeserved_request_errors_total{endpoint=\"%s\"} %d\n", escapeLabel(e), m.endpoints[e].errors.Load())
	}
	histogram("citeserved_request_duration_seconds", "Request handling latency, by endpoint.")
	for _, e := range names {
		writeHistogram(w, "citeserved_request_duration_seconds", "endpoint", e, m.endpoints[e].latency.Snapshot())
	}
	if stages := m.stages.Labels(); len(stages) > 0 {
		histogram("citeserved_stage_duration_seconds", "Engine time per pipeline stage, from sampled request traces.")
		for _, st := range stages {
			writeHistogram(w, "citeserved_stage_duration_seconds", "stage", st, m.stages.Get(st).Snapshot())
		}
	}

	cs := s.CacheStats()
	counter("citeserved_cache_hits_total", "Citations served from the result cache.")
	fmt.Fprintf(w, "citeserved_cache_hits_total %d\n", cs.Hits)
	counter("citeserved_cache_misses_total", "Citations computed by the engine (one per cache miss).")
	fmt.Fprintf(w, "citeserved_cache_misses_total %d\n", cs.Misses)
	counter("citeserved_cache_coalesced_total", "Requests that joined an in-flight computation.")
	fmt.Fprintf(w, "citeserved_cache_coalesced_total %d\n", cs.Coalesced)
	counter("citeserved_cache_evictions_total", "Cache entries evicted at capacity.")
	fmt.Fprintf(w, "citeserved_cache_evictions_total %d\n", cs.Evictions)
	counter("citeserved_result_cache_evicted_total", "Cached citations a lookup found computed from content that has since changed.")
	fmt.Fprintf(w, "citeserved_result_cache_evicted_total %d\n", cs.Invalidated)
	gauge("citeserved_cache_entries", "Cached citation results.")
	fmt.Fprintf(w, "citeserved_cache_entries %d\n", cs.Entries)

	gc := s.sys.Generator().Counters()
	for _, c := range []struct {
		name, what string
		count      citation.CacheCount
	}{
		{"view", "View copies", gc.Views},
		{"atom", "Atom-cache entries", gc.Atoms},
		{"plan", "Prepared plans", gc.Plans},
	} {
		entries, evicted := "citeserved_"+c.name+"_cache_entries", "citeserved_"+c.name+"_cache_evicted_total"
		gauge(entries, c.what+" the generator holds.")
		fmt.Fprintf(w, "%s %d\n", entries, c.count.Entries)
		counter(evicted, c.what+" evicted at the cache's entry bound.")
		fmt.Fprintf(w, "%s %d\n", evicted, c.count.Evicted)
	}
	// The rewriting memo: hits, misses, live entries and evictions.
	rm := s.sys.Generator().RewriteMemoStats()
	counter("citeserved_rewrite_memo_hits_total", "Rewriting stages answered by the shape memo.")
	fmt.Fprintf(w, "citeserved_rewrite_memo_hits_total %d\n", rm.Hits)
	counter("citeserved_rewrite_memo_misses_total", "Rewriting stages that ran the rewriter and filled the shape memo.")
	fmt.Fprintf(w, "citeserved_rewrite_memo_misses_total %d\n", rm.Misses)
	gauge("citeserved_rewrite_memo_entries", "Query shapes held by the rewriting memo.")
	fmt.Fprintf(w, "citeserved_rewrite_memo_entries %d\n", rm.Entries)
	counter("citeserved_rewrite_memo_evicted_total", "Query shapes evicted at the rewriting memo's entry bound.")
	fmt.Fprintf(w, "citeserved_rewrite_memo_evicted_total %d\n", rm.Evicted)

	cu := storage.ColumnarUsage()
	counter("citeserved_columnar_blocks_total", "Dictionary-encoded columnar blocks built for frozen relations, rebuilds of evicted blocks included.")
	fmt.Fprintf(w, "citeserved_columnar_blocks_total %d\n", cu.BlocksBuilt)
	counter("citeserved_columnar_blocks_evicted_total", "Columnar blocks evicted at the block set's bound.")
	fmt.Fprintf(w, "citeserved_columnar_blocks_evicted_total %d\n", cu.BlocksEvicted)
	gauge("citeserved_columnar_blocks_held", "Frozen relations holding a columnar block.")
	fmt.Fprintf(w, "citeserved_columnar_blocks_held %d\n", cu.BlocksHeld)
	counter("citeserved_columnar_dict_bytes_total", "Cumulative dictionary bytes built into columnar blocks.")
	fmt.Fprintf(w, "citeserved_columnar_dict_bytes_total %d\n", cu.DictBytes)
	counter("citeserved_columnar_code_bytes_total", "Cumulative code-vector and posting-list bytes built into columnar blocks.")
	fmt.Fprintf(w, "citeserved_columnar_code_bytes_total %d\n", cu.CodeBytes)

	counter("citeserved_rejected_total", "Requests rejected by admission control.")
	fmt.Fprintf(w, "citeserved_rejected_total %d\n", m.rejected.Load())
	counter("citeserved_timeouts_total", "Requests that exceeded the per-request deadline.")
	fmt.Fprintf(w, "citeserved_timeouts_total %d\n", m.timeouts.Load())
	gauge("citeserved_inflight_requests", "Requests currently being handled.")
	fmt.Fprintf(w, "citeserved_inflight_requests %d\n", m.inflight.Load())
	histogram("citeserved_admission_wait_seconds", "Time /cite requests queue on the admission semaphore (rejections included).")
	writeBareHistogram(w, "citeserved_admission_wait_seconds", m.admissionWait.Snapshot())

	if s.qstats != nil {
		qs := s.qstats.Stats()
		gauge("citeserved_querystats_tracked", "Query fingerprints currently tracked by the statistics sketch.")
		fmt.Fprintf(w, "citeserved_querystats_tracked %d\n", qs.Tracked)
		counter("citeserved_querystats_evicted_total", "Fingerprints displaced from the sketch at capacity (saturation signal).")
		fmt.Fprintf(w, "citeserved_querystats_evicted_total %d\n", qs.Evicted)
		counter("citeserved_querystats_observations_total", "Query calls observed by the statistics store.")
		fmt.Fprintf(w, "citeserved_querystats_observations_total %d\n", qs.Observations)
	}
	epoch, storeVersion := s.sys.Versions()
	gauge("citeserved_epoch", "System version token (bumped by commit/view/policy changes).")
	fmt.Fprintf(w, "citeserved_epoch %d\n", epoch)
	gauge("citeserved_store_version", "Latest committed store version.")
	fmt.Fprintf(w, "citeserved_store_version %d\n", storeVersion)

	gauge("citeserved_build_info", "Build metadata; the value is always 1.")
	fmt.Fprintf(w, "citeserved_build_info{version=\"%s\",go_version=\"%s\"} 1\n", escapeLabel(Version), escapeLabel(runtime.Version()))
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	gauge("citeserved_goroutines", "Goroutines currently live in the process.")
	fmt.Fprintf(w, "citeserved_goroutines %d\n", runtime.NumGoroutine())
	gauge("citeserved_heap_alloc_bytes", "Heap bytes allocated and still in use.")
	fmt.Fprintf(w, "citeserved_heap_alloc_bytes %d\n", ms.HeapAlloc)
	gauge("citeserved_heap_sys_bytes", "Heap bytes obtained from the OS.")
	fmt.Fprintf(w, "citeserved_heap_sys_bytes %d\n", ms.HeapSys)
	counter("citeserved_gc_pause_seconds_total", "Cumulative stop-the-world GC pause time.")
	fmt.Fprintf(w, "citeserved_gc_pause_seconds_total %g\n", float64(ms.PauseTotalNs)/float64(time.Second))
	counter("citeserved_gc_cycles_total", "Completed GC cycles.")
	fmt.Fprintf(w, "citeserved_gc_cycles_total %d\n", ms.NumGC)

	if dur, ok := s.sys.Durability(); ok {
		gauge("citeserved_wal_segments", "Commit-log segment files on disk (active included).")
		fmt.Fprintf(w, "citeserved_wal_segments %d\n", dur.Segments)
		gauge("citeserved_wal_bytes_since_checkpoint", "Log bytes appended since the last checkpoint.")
		fmt.Fprintf(w, "citeserved_wal_bytes_since_checkpoint %d\n", dur.BytesSinceCheckpoint)
		counter("citeserved_checkpoints_total", "Checkpoints written by this process.")
		fmt.Fprintf(w, "citeserved_checkpoints_total %d\n", dur.Checkpoints)
		gauge("citeserved_recovery_seconds", "Duration of the boot recovery (0 = fresh start).")
		fmt.Fprintf(w, "citeserved_recovery_seconds %g\n", dur.LastRecovery.Seconds())
		gauge("citeserved_recovered_version", "Latest committed version rebuilt from the data directory at boot.")
		fmt.Fprintf(w, "citeserved_recovered_version %d\n", dur.RecoveredVersion)
		gauge("citeserved_wal_fsync_mode", "Active fsync policy (1 for the mode in the label).")
		fmt.Fprintf(w, "citeserved_wal_fsync_mode{mode=\"%s\"} 1\n", escapeLabel(string(dur.Fsync)))
	}
}
