// Package server is the network serving layer over core.System — the
// paper's framing of citation generation as a service a repository runs
// against its live, evolving database (§1: citations "generated
// on-the-fly", §3: serving many users over shared views). It exposes the
// engine as HTTP/JSON endpoints behind a content-validated LRU result
// cache with request coalescing: a hot query is computed exactly once no
// matter how many clients demand it concurrently, and a cached result is
// served exactly while the snapshot a request reads holds the content
// its relation read-set (CiteResult.Reads) had when it was computed —
// so results over relations a write did not change stay warm across it
// (DESIGN.md §3, §5). DefineView/SetPolicyNamed change citation
// semantics and orphan everything by bumping the configuration
// generation the cache keys on.
//
// Endpoints:
//
//	POST /cite      {"query": "..."} or {"queries": ["...", ...]}
//	                ?version=N cites against committed snapshot N
//	                (time travel; 404 on unknown versions)
//	POST /ingest    {"relation": "R", "insert": [[...]], "delete": [[...]]}
//	                or {"batches": [...]} — journaled head mutations
//	POST /commit    {"message": "..."}
//	GET  /versions  commit history
//	GET  /relations relation names, arities, cardinalities (?version=N)
//	GET  /views     registered citation views
//	GET  /healthz   liveness + basic shape + recovered_version
//	GET  /metrics   Prometheus text format counters + durability gauges
//
// Errors are classified by the engine's typed sentinels: a query that
// does not parse answers 400 (cq.ErrBadQuery), an unknown version 404
// (fixity.ErrUnknownVersion), a deadline 504, an engine panic 500, and
// semantic failures — no rewriting, unknown relation — 422.
//
// Responses embed format.Record's canonical JSON encoding, so a citation
// rendered on the wire is byte-compatible with format.JSON output.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"net/url"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/citation"
	"repro/internal/core"
	"repro/internal/cq"
	"repro/internal/fixity"
	"repro/internal/format"
	"repro/internal/qstats"
	"repro/internal/schema"
	"repro/internal/storage"
	"repro/internal/trace"
	"repro/internal/value"
)

// Defaults for Options zero values.
const (
	defaultCacheSize      = 1024
	defaultRequestTimeout = 30 * time.Second
	defaultBodyLimit      = 1 << 20 // 1 MiB request bodies
	defaultTraceRing      = 64
)

// Options configures a Server. The zero value serves with sensible
// defaults.
type Options struct {
	// CacheSize bounds the result cache (entries). 0 means 1024.
	CacheSize int
	// RequestTimeout bounds the handling of one request, queueing and
	// computation included. 0 means 30s; negative disables the deadline.
	RequestTimeout time.Duration
	// MaxInFlight is the admission-control semaphore width for /cite: at
	// most this many cite requests are admitted concurrently, the rest
	// queue until a slot frees or their deadline expires (503). A slot is
	// held until both the request and any computation it spawned finish,
	// so engine work stays bounded even when clients time out mid-compute.
	// 0 means 4×GOMAXPROCS; negative disables admission control.
	MaxInFlight int
	// ComputeTimeout bounds one detached cache-fill computation. It is
	// deliberately longer than RequestTimeout: a computation that barely
	// outlives its client should still finish and fill the cache (the
	// next request is a hit), while a runaway enumeration is cancelled
	// cooperatively through the engine instead of burning a worker
	// forever. 0 means 4×RequestTimeout; negative disables the bound.
	ComputeTimeout time.Duration
	// TraceSample is the fraction of /cite requests that carry a full
	// span trace (the endpoint latency histograms are always on). 0
	// means 1.0 — trace everything; negative disables span tracing. An
	// un-sampled request pays one nil context lookup per pipeline stage.
	TraceSample float64
	// TraceEcho enables the ?trace=1 query parameter on /cite: a traced
	// request echoes its span tree inside the response envelope. Opt-in
	// because it exposes engine internals (view names, cache decisions)
	// to any client that asks.
	TraceEcho bool
	// TraceRing bounds the in-memory ring of recent traces served on
	// GET /debug/traces. 0 means 64 entries; negative disables retention
	// (the endpoint then answers 404).
	TraceRing int
	// SlowQuery is the latency threshold at or above which a completed
	// traced /cite request is written to the slow-query log as one JSON
	// line carrying its full span tree. 0 disables slow-query logging.
	SlowQuery time.Duration
	// SlowQueryLog receives the slow-query lines. nil means os.Stderr.
	SlowQueryLog io.Writer
	// QueryStats is the width (tracked fingerprints) of the per-query
	// statistics sketch fed by sampled traces and served on GET
	// /debug/querystats. 0 means qstats.DefaultK (256); negative
	// disables the store (the endpoint then answers 404).
	QueryStats int
	// Parallelism bounds how many members of a batch /cite the engine
	// cites at once, through core.WithParallelism. 0 means GOMAXPROCS;
	// 1 cites them one after another. Each cite runs on one goroutine,
	// and results are identical either way.
	Parallelism int
}

// Server serves a core.System over HTTP. Create with New, mount via
// Handler (any mux/middleware stack) or run standalone with
// ListenAndServe/Serve + Shutdown.
type Server struct {
	sys     *core.System
	opts    Options
	cache   *resultCache
	metrics *serverMetrics
	mux     *http.ServeMux
	httpSrv *http.Server
	sem     chan struct{}     // admission control; nil = unlimited
	ring    *trace.Ring       // recent traces for /debug/traces; nil = disabled
	slowLog *trace.SlowLogger // nil = slow-query logging disabled
	qstats  *qstats.Store     // per-fingerprint statistics; nil = disabled

	// citer computes a batch of citations with per-query errors, against
	// the head when version is 0 or the committed snapshot otherwise. It
	// defaults to sys.CiteEachContext (+ AtVersion, WithParallelism);
	// tests substitute instrumented or slow implementations.
	citer func(ctx context.Context, queries []string, version fixity.Version) ([]*core.Citation, []error)

	// computeWG tracks detached cache-fill computations so Shutdown can
	// wait for them after the HTTP listener drains.
	computeWG sync.WaitGroup
}

// New builds a server over the system. The system should already have its
// views defined and (typically) an initial Commit so citations carry
// fixity pins.
func New(sys *core.System, opts Options) *Server {
	if opts.CacheSize == 0 {
		opts.CacheSize = defaultCacheSize
	}
	if opts.RequestTimeout == 0 {
		opts.RequestTimeout = defaultRequestTimeout
	}
	if opts.MaxInFlight == 0 {
		opts.MaxInFlight = 4 * runtime.GOMAXPROCS(0)
	}
	if opts.ComputeTimeout == 0 && opts.RequestTimeout > 0 {
		opts.ComputeTimeout = 4 * opts.RequestTimeout
	}
	if opts.TraceSample == 0 {
		opts.TraceSample = 1.0
	}
	if opts.TraceRing == 0 {
		opts.TraceRing = defaultTraceRing
	}
	s := &Server{
		sys:     sys,
		opts:    opts,
		cache:   newResultCache(opts.CacheSize),
		metrics: newServerMetrics([]string{"cite", "ingest", "commit", "versions", "relations", "views", "healthz", "metrics"}),
		mux:     http.NewServeMux(),
	}
	if opts.TraceRing > 0 {
		s.ring = trace.NewRing(opts.TraceRing)
	}
	if opts.SlowQuery > 0 {
		w := opts.SlowQueryLog
		if w == nil {
			w = os.Stderr
		}
		s.slowLog = trace.NewSlowLogger(w)
	}
	if opts.QueryStats >= 0 {
		s.qstats = qstats.NewStore(opts.QueryStats)
	}
	s.citer = func(ctx context.Context, queries []string, version fixity.Version) ([]*core.Citation, []error) {
		var citeOpts []core.CiteOption
		if version > 0 {
			citeOpts = append(citeOpts, core.AtVersion(version))
		}
		if par := s.opts.Parallelism; par > 0 {
			citeOpts = append(citeOpts, core.WithParallelism(par))
		}
		return sys.CiteEachContext(ctx, queries, citeOpts...)
	}
	if opts.MaxInFlight > 0 {
		s.sem = make(chan struct{}, opts.MaxInFlight)
	}
	s.mux.HandleFunc("/cite", s.metrics.instrument("cite", s.methodOnly(http.MethodPost, s.handleCite)))
	s.mux.HandleFunc("/ingest", s.metrics.instrument("ingest", s.methodOnly(http.MethodPost, s.handleIngest)))
	s.mux.HandleFunc("/commit", s.metrics.instrument("commit", s.methodOnly(http.MethodPost, s.handleCommit)))
	s.mux.HandleFunc("/versions", s.metrics.instrument("versions", s.methodOnly(http.MethodGet, s.handleVersions)))
	s.mux.HandleFunc("/relations", s.metrics.instrument("relations", s.methodOnly(http.MethodGet, s.handleRelations)))
	s.mux.HandleFunc("/views", s.metrics.instrument("views", s.methodOnly(http.MethodGet, s.handleViews)))
	s.mux.HandleFunc("/healthz", s.metrics.instrument("healthz", s.methodOnly(http.MethodGet, s.handleHealthz)))
	s.mux.HandleFunc("/metrics", s.metrics.instrument("metrics", s.methodOnly(http.MethodGet, s.handleMetrics)))
	s.registerDebug()
	s.httpSrv = &http.Server{Handler: s.mux}
	return s
}

// System returns the served system (for embedders).
func (s *Server) System() *core.System { return s.sys }

// Handler returns the server's HTTP handler for mounting under an
// external mux or middleware stack.
func (s *Server) Handler() http.Handler { return s.mux }

// ListenAndServe serves on addr until Shutdown or a listener error.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Serve serves on an existing listener until Shutdown or error. Like
// net/http, it returns http.ErrServerClosed after a clean Shutdown.
func (s *Server) Serve(ln net.Listener) error { return s.httpSrv.Serve(ln) }

// Shutdown gracefully stops the server: the listener closes, in-flight
// requests drain, and detached cache-fill computations are awaited (or
// abandoned when ctx expires; they only populate the cache, so
// abandoning them loses no client response).
func (s *Server) Shutdown(ctx context.Context) error {
	err := s.httpSrv.Shutdown(ctx)
	done := make(chan struct{})
	go func() {
		s.computeWG.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		if err == nil {
			err = ctx.Err()
		}
	}
	return err
}

// InvalidateCache drops every cached citation result. Origin validation
// makes this unnecessary for correctness (a stale entry is never
// served); it exists to release memory promptly and for benchmarks that
// need a cold cache.
func (s *Server) InvalidateCache() { s.cache.purge() }

// CacheStats is a point-in-time snapshot of the result-cache counters.
// Misses count engine computations: under coalescing, N concurrent
// requests for the same query at the same version add exactly 1.
// Evictions counts LRU capacity evictions; Invalidated counts the
// entries a lookup found computed from content that has since changed.
type CacheStats struct {
	Hits, Misses, Coalesced, Evictions, Entries, Invalidated int64
}

// QueryStats returns the per-query statistics store, or nil when
// Options.QueryStats disabled it.
func (s *Server) QueryStats() *qstats.Store { return s.qstats }

// CacheStats snapshots the result-cache counters.
func (s *Server) CacheStats() CacheStats {
	return CacheStats{
		Hits:        s.cache.hits.Load(),
		Misses:      s.cache.misses.Load(),
		Coalesced:   s.cache.coalesced.Load(),
		Evictions:   s.cache.evictions.Load(),
		Entries:     int64(s.cache.len()),
		Invalidated: s.cache.invalidated.Load(),
	}
}

// Pin is the wire form of a fixity pin (fixity.PinnedCitation).
type Pin struct {
	Query     string    `json:"query"`
	Version   int       `json:"version"`
	Timestamp time.Time `json:"timestamp"`
	SHA256    string    `json:"sha256"`
	Tuples    int       `json:"tuples"`
}

// CiteResult is the wire form of one citation: the canonical record
// (format.Record's JSON encoding — identical to format.JSON output), a
// human-readable text rendering, and the fixity pin when the store has
// committed versions. Exactly one of Record/Error is meaningful: a
// failed query reports Error and nothing else.
type CiteResult struct {
	Query  string        `json:"query"`
	Record format.Record `json:"record,omitempty"`
	Text   string        `json:"text,omitempty"`
	Pin    *Pin          `json:"pin,omitempty"`
	Cache  string        `json:"cache,omitempty"` // "hit", "miss" or "coalesced"
	// Reads is the citation's relation read-set: the base relations the
	// engine transitively read to produce it (citation.Result.Reads).
	// Clients see which writes can change the citation; the server's
	// result cache validates entries by the content of these relations.
	Reads []string `json:"reads,omitempty"`
	Error string   `json:"error,omitempty"`
}

// NewCiteResult converts an engine citation into its wire form. It is
// exported for CLI tools (citegen -json) so the file and wire renderings
// share one envelope.
func NewCiteResult(query string, c *core.Citation) CiteResult {
	out := CiteResult{
		Query:  query,
		Record: c.Result.Record,
		Text:   c.Text(),
		Reads:  c.Result.Reads,
	}
	if c.Pin != nil {
		out.Pin = &Pin{
			Query:     c.Pin.QueryText,
			Version:   int(c.Pin.Version),
			Timestamp: c.Pin.Timestamp,
			SHA256:    c.Pin.Digest,
			Tuples:    c.Pin.Tuples,
		}
	}
	return out
}

// citeRequest is the POST /cite body: exactly one of Query/Queries.
type citeRequest struct {
	Query   string   `json:"query,omitempty"`
	Queries []string `json:"queries,omitempty"`
}

// errEngineFault marks failures that are the server's own (an engine
// panic), not the client's; statusForError maps it to 500.
var errEngineFault = errors.New("server: engine fault")

// statusForError maps an engine error onto the HTTP status taxonomy:
// unparsable query 400, unknown version 404, deadline/cancellation 504,
// engine fault 500, and semantic failures (no rewriting over the views,
// unknown relation) 422.
func statusForError(err error) int {
	switch {
	case errors.Is(err, cq.ErrBadQuery):
		return http.StatusBadRequest
	case errors.Is(err, fixity.ErrUnknownVersion):
		return http.StatusNotFound
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout
	case errors.Is(err, errEngineFault):
		return http.StatusInternalServerError
	default:
		return http.StatusUnprocessableEntity
	}
}

// sampleTrace decides whether this request gets a span trace.
func (s *Server) sampleTrace() bool {
	sr := s.opts.TraceSample
	if sr >= 1 {
		return true
	}
	if sr <= 0 {
		return false
	}
	return rand.Float64() < sr
}

// observeTrace publishes one finished request trace to its four sinks:
// every ended span feeds the per-stage histograms, the trace enters the
// /debug/traces ring, a request at or over the slow-query threshold
// emits one slow-query log line with the full span tree, and the
// per-query statistics store accumulates the request's cost vector
// under each query's fingerprint. outs carries the batch's per-query
// outcomes (nil when the request was rejected before computing — such
// requests have no per-query story to account).
func (s *Server) observeTrace(endpoint string, tr *trace.Trace, queries []string, outs []citeOutcome) {
	if tr == nil {
		return
	}
	root := tr.Root()
	root.Visit(func(sp *trace.Span) {
		// The root span is the whole request, already covered by the
		// endpoint latency histogram; open spans have no duration yet.
		if d := sp.Duration(); sp != root && d > 0 {
			s.metrics.stages.Observe(sp.Name(), d)
		}
	})
	s.ring.Add(tr)
	if s.slowLog != nil && tr.Duration() >= s.opts.SlowQuery {
		s.slowLog.Log(trace.SlowEntry{
			Time:        time.Now().UTC(),
			TraceID:     tr.ID,
			Endpoint:    endpoint,
			DurUS:       tr.Duration().Microseconds(),
			ThresholdUS: s.opts.SlowQuery.Microseconds(),
			Queries:     queries,
			Spans:       tr.Root().Snapshot(),
		})
	}
	if s.qstats != nil && len(outs) > 0 {
		// A single query's outcome stays on the stack.
		var one [1]qstats.Outcome
		outcomes := one[:0]
		for _, o := range outs {
			outcomes = append(outcomes, qstats.Outcome{
				Query: o.query,
				Cache: o.cache,
				Err:   o.err != nil,
			})
		}
		s.qstats.ObserveRequest(tr, outcomes)
	}
}

func (s *Server) handleCite(w http.ResponseWriter, r *http.Request) {
	// The trace opens at handler entry, so validation and body decoding
	// are attributed too, and the deferred call finishes and observes it
	// (ring, stage histograms, slow-query log, query statistics) exactly
	// once on every return path. queries and outs fill in as the request
	// gets that far: a request rejected before citing (400, 404, 413,
	// 503) feeds the trace sinks but no per-query statistics (nil outs).
	var tr *trace.Trace
	var queries []string
	var outs []citeOutcome
	if s.sampleTrace() {
		tr = trace.New("cite")
		defer func() {
			tr.Finish()
			s.observeTrace("cite", tr, queries, outs)
		}()
	}
	// The server's own stages open as children of the root directly:
	// only the engine's stages need a context carrying their span, and
	// each such context is an allocation.
	root := tr.Root()
	ctx := trace.NewContext(r.Context(), tr)
	if s.opts.RequestTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.opts.RequestTimeout)
		defer cancel()
	}
	var params url.Values
	if r.URL.RawQuery != "" {
		params = r.URL.Query()
	}
	// Validate and decode before admission: malformed requests answer
	// 4xx immediately instead of queueing for (and wasting) a /cite slot.
	validate := root.StartChild("validate")
	version, status, msg := s.citeVersion(params.Get("version"))
	validate.End()
	if status != 0 {
		writeError(w, status, msg)
		return
	}
	decode := root.StartChild("decode")
	queries, single, status, msg := decodeCite(w, r)
	decode.End()
	if status != 0 {
		writeError(w, status, msg)
		return
	}
	var slot *slotRef
	if s.sem != nil {
		// The wait is measured directly (not via the admission span):
		// the histogram is always on, like the endpoint latencies, while
		// the span exists only on sampled requests.
		admSpan := root.StartChild("admission")
		admStart := time.Now()
		admitted := false
		select {
		case s.sem <- struct{}{}:
			admitted = true
		default:
			// Every slot is taken: queue until one frees or the deadline
			// passes. Only now is the context asked for its Done channel,
			// which it allocates on first use.
			select {
			case s.sem <- struct{}{}:
				admitted = true
			case <-ctx.Done():
			}
		}
		s.metrics.admissionWait.Observe(time.Since(admStart))
		if !admitted {
			admSpan.Set("rejected", true)
			admSpan.End()
			s.metrics.rejected.Add(1)
			writeError(w, http.StatusServiceUnavailable, "admission queue full: "+ctx.Err().Error())
			return
		}
		admSpan.End()
		slot = newSlotRef(s.sem)
		defer slot.done()
	}

	cited, epoch, respVersion, timedOut := s.citeBatch(ctx, queries, version, slot)
	outs = cited
	if timedOut {
		s.metrics.timeouts.Add(1)
	}
	if single && outs[0].err != nil {
		writeError(w, statusForError(outs[0].err), outs[0].err.Error())
		return
	}
	// Batches always answer 200; per-query failures travel in each
	// result's "error" field so one bad query cannot mask its neighbors'
	// citations. The echoed snapshot is taken before the reply is
	// encoded, so the "encode" span appears in /debug/traces and the
	// slow-query log but not in the echo.
	var echo *trace.TraceSnapshot
	if tr != nil && s.opts.TraceEcho && params.Get("trace") == "1" {
		snap := tr.Snapshot()
		echo = &snap
	}
	// The envelope carries the epoch/version pair the batch was keyed
	// on, not a fresh read: a commit racing the response must not make
	// the envelope claim a version newer than the results it carries.
	encSpan := root.StartChild("encode")
	n, err := writeCite(w, epoch, int(respVersion), single, outs, echo)
	encSpan.Add("bytes", int64(n))
	encSpan.End()
	if err != nil {
		// writeCite writes nothing when it cannot encode the reply.
		writeError(w, http.StatusInternalServerError, err.Error())
	}
}

// citeVersion checks a /cite or /relations request's ?version=
// parameter: 0 for a head request, else a committed version. A rejection
// reports its status and message; status 0 accepts.
func (s *Server) citeVersion(vs string) (v fixity.Version, status int, msg string) {
	if vs == "" {
		return 0, 0, ""
	}
	n, err := strconv.Atoi(vs)
	if err != nil || n < 1 {
		return 0, http.StatusBadRequest, fmt.Sprintf("invalid version %q: want a positive integer", vs)
	}
	// Reject unknown versions before admission and before touching the
	// cache: the whole batch targets one snapshot, so the check is one
	// store lookup, and the taxonomy makes it a 404.
	if _, err := s.sys.Store().At(fixity.Version(n)); err != nil {
		return 0, statusForError(err), err.Error()
	}
	return fixity.Version(n), 0, ""
}

// decodeCite decodes a /cite body into its queries; single reports a
// {"query": …} body. A rejection reports its status and message; status
// 0 accepts.
func decodeCite(w http.ResponseWriter, r *http.Request) (queries []string, single bool, status int, msg string) {
	var req citeRequest
	if err := decodeBody(w, r, &req); err != nil {
		return nil, false, bodyStatus(err), err.Error()
	}
	switch {
	case req.Query != "" && len(req.Queries) > 0:
		return nil, false, http.StatusBadRequest, `body must set exactly one of "query" or "queries"`
	case req.Query != "":
		return []string{req.Query}, true, 0, ""
	case len(req.Queries) == 0:
		return nil, false, http.StatusBadRequest, `body must set "query" or a non-empty "queries"`
	}
	return req.Queries, false, 0, ""
}

// slotRef shares one admission slot between a request handler and the
// detached computation it may spawn: the slot frees only when the last
// holder releases it, so engine work stays bounded by MaxInFlight even
// when clients time out mid-compute and new requests are admitted. A nil
// *slotRef (admission control disabled) is a no-op.
type slotRef struct {
	holders atomic.Int32
	sem     chan struct{}
}

func newSlotRef(sem chan struct{}) *slotRef {
	r := &slotRef{sem: sem}
	r.holders.Store(1)
	return r
}

func (r *slotRef) add() {
	if r != nil {
		r.holders.Add(1)
	}
}

func (r *slotRef) done() {
	if r != nil && r.holders.Add(-1) == 0 {
		<-r.sem
	}
}

// pendingResult tracks one batch position through the cache.
type pendingResult struct {
	idx   int
	key   cacheKey
	call  *cacheCall
	owner bool
}

// citeBatch resolves a batch of queries through the coalescing cache.
// The batch looks up against one snapshot — the head's for version 0,
// else the version's — and a cached entry serves it while that snapshot
// holds the content the entry read. Owned computations run in a
// detached goroutine (holding a reference to the caller's admission
// slot) so a caller timing out cannot strand coalesced waiters: the
// computation publishes to every waiter and fills the cache. The detached run carries its own
// deadline (Options.ComputeTimeout, detached from the client
// connection), which the engine's cooperative cancellation enforces — a
// runaway enumeration stops at the deadline instead of burning a worker
// indefinitely. Each failed position's outcome carries its typed error
// for status mapping; timedOut reports whether any position was
// abandoned at the request deadline.
func (s *Server) citeBatch(ctx context.Context, queries []string, version fixity.Version, slot *slotRef) (outs []citeOutcome, epoch int64, respVersion fixity.Version, timedOut bool) {
	outs = make([]citeOutcome, len(queries))
	// Every key carries the config generation: SetPolicyNamed/DefineView
	// orphan all entries at once.
	snap, epoch, config, respVersion, err := s.sys.Snapshot(version)
	if err != nil {
		// citeVersion admitted the version, and versions are never
		// removed, so this cannot happen; it still answers by the error.
		for i, q := range queries {
			outs[i] = citeOutcome{query: q, err: err}
		}
		return outs, epoch, respVersion, false
	}
	var pending []pendingResult
	var owned []pendingResult
	// The cache span covers the lookup decisions only; waiting for (or
	// running) a computation is timed by the engine's own stage spans.
	cacheSpan := trace.SpanFromContext(ctx).StartChild("cache")
	for i, q := range queries {
		k := cacheKey{config: config, version: version, query: q}
		val, cached, cl, owner := s.cache.acquire(k, snap)
		outs[i].query = q
		if cached {
			outs[i].cite, outs[i].cache = val, "hit"
			cacheSpan.Add("hits", 1)
			continue
		}
		p := pendingResult{idx: i, key: k, call: cl, owner: owner}
		pending = append(pending, p)
		if owner {
			owned = append(owned, p)
			cacheSpan.Add("misses", 1)
		} else {
			cacheSpan.Add("coalesced", 1)
		}
	}
	cacheSpan.End()
	if len(owned) > 0 {
		batch := make([]string, len(owned))
		for j, p := range owned {
			batch[j] = queries[p.idx]
		}
		s.computeWG.Add(1)
		slot.add()
		go func() {
			defer s.computeWG.Done()
			defer slot.done()
			// The computation is shared by every coalesced waiter, so it
			// must not die with the requesting client's connection; it
			// gets its own (longer) deadline instead, which cancels the
			// engine cooperatively. It does keep the requester's trace:
			// the engine's stage spans land in the tree of the request
			// that owned the miss (coalesced requests legitimately show
			// only the cache span).
			//lint:detach coalesced computation outlives the requesting client; it gets its own deadline below
			compCtx := trace.ContextWithSpan(context.Background(), trace.SpanFromContext(ctx))
			if s.opts.ComputeTimeout > 0 {
				var cancel context.CancelFunc
				compCtx, cancel = context.WithTimeout(compCtx, s.opts.ComputeTimeout)
				defer cancel()
			}
			completed := 0
			// This goroutine runs outside net/http's per-connection
			// recover: an engine panic must become a per-query error (and
			// release every coalesced waiter), not a process crash.
			defer func() {
				if r := recover(); r != nil {
					err := fmt.Errorf("%w: citation panicked: %v", errEngineFault, r)
					for _, p := range owned[completed:] {
						s.cache.complete(p.key, p.call, nil, err)
					}
				}
			}()
			cites, cerrs := s.citer(compCtx, batch, version)
			for j, p := range owned {
				var val *encodedCite
				err := cerrs[j]
				if err == nil && cites[j] == nil {
					err = fmt.Errorf("%w: citer returned no citation", errEngineFault)
				}
				if err == nil {
					// The engine parsed the text: its parse fingerprints
					// the query for the statistics store before any
					// waiter's request observes it.
					s.qstats.Remember(batch[j], cites[j].Result.Query)
					// The one encoding of this citation: every reply that
					// carries it is written around these bytes. Its origin
					// is the one of the snapshot the citation read, which
					// may be newer than the one the batch looked up with.
					val, err = encodeCite(NewCiteResult(batch[j], cites[j]), cites[j].Result.Origin)
				}
				s.cache.complete(p.key, p.call, val, err)
				completed = j + 1
			}
		}()
	}
	// Within one batch a duplicated query coalesces onto the batch's own
	// owner; its call completes above, so waiting here cannot deadlock.
	for _, p := range pending {
		o := &outs[p.idx]
		select {
		case <-p.call.done:
			if p.call.err != nil {
				o.err = p.call.err
				continue
			}
			o.cite, o.cache = p.call.val, "coalesced"
			if p.owner {
				o.cache = "miss"
			}
		case <-ctx.Done():
			timedOut = true
			o.err = fmt.Errorf("deadline exceeded: %w", ctx.Err())
		}
	}
	if version > 0 {
		respVersion = version
	}
	return outs, epoch, respVersion, timedOut
}

// commitRequest is the POST /commit body.
type commitRequest struct {
	Message string `json:"message"`
}

// versionInfo is the wire form of one commit record.
type versionInfo struct {
	Version   int       `json:"version"`
	Timestamp time.Time `json:"timestamp"`
	Message   string    `json:"message"`
	Tuples    int       `json:"tuples"`
}

func (s *Server) handleCommit(w http.ResponseWriter, r *http.Request) {
	var req commitRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, bodyStatus(err), err.Error())
		return
	}
	if req.Message == "" {
		req.Message = "citeserved commit"
	}
	// CommitVersioned pairs the commit with the epoch it produced — a
	// racing second commit cannot make this response claim its epoch.
	info, epoch, err := s.sys.CommitVersioned(req.Message)
	if err != nil {
		// Journal/checkpoint failures are the server's disk, not the
		// client's request.
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Epoch int64 `json:"epoch"`
		versionInfo
	}{
		Epoch: epoch,
		versionInfo: versionInfo{
			Version:   int(info.Version),
			Timestamp: info.Timestamp,
			Message:   info.Message,
			Tuples:    info.Tuples,
		},
	})
}

func (s *Server) handleVersions(w http.ResponseWriter, r *http.Request) {
	epoch, latest := s.sys.Versions()
	history := s.sys.Store().History()
	// A commit racing the two reads above can only append; truncating to
	// the snapshotted latest keeps the response self-consistent.
	if int(latest) < len(history) {
		history = history[:latest]
	}
	out := struct {
		Epoch    int64         `json:"epoch"`
		Latest   int           `json:"latest"`
		Versions []versionInfo `json:"versions"`
	}{
		Epoch:    epoch,
		Latest:   int(latest),
		Versions: make([]versionInfo, len(history)),
	}
	for i, info := range history {
		out.Versions[i] = versionInfo{
			Version:   int(info.Version),
			Timestamp: info.Timestamp,
			Message:   info.Message,
			Tuples:    info.Tuples,
		}
	}
	writeJSON(w, http.StatusOK, out)
}

// ingestBatch is one relation's mutation batch: tuples to delete and
// tuples to insert, each an array of JSON values matching the relation's
// attribute kinds (numbers for int/float columns, strings for string
// columns, RFC3339 strings for time columns). Deletions apply before
// insertions.
type ingestBatch struct {
	Relation string              `json:"relation"`
	Insert   [][]json.RawMessage `json:"insert,omitempty"`
	Delete   [][]json.RawMessage `json:"delete,omitempty"`
}

// ingestRequest is the POST /ingest body: either a single batch inline
// (relation/insert/delete) or a list under "batches".
type ingestRequest struct {
	ingestBatch
	Batches []ingestBatch `json:"batches,omitempty"`
}

// ingestBatchResult reports one applied batch.
type ingestBatchResult struct {
	Relation string `json:"relation"`
	Inserted int    `json:"inserted"`
	Deleted  int    `json:"deleted"`
}

// ingestResponse is the POST /ingest reply. Epoch is the system version
// token after the mutations: every batch below it is visible to any cite
// that observes this epoch.
type ingestResponse struct {
	Epoch    int64               `json:"epoch"`
	Inserted int                 `json:"inserted"`
	Deleted  int                 `json:"deleted"`
	Batches  []ingestBatchResult `json:"batches"`
}

// decodeTuple coerces one wire tuple onto the relation's attribute kinds.
// A JSON null is refused for every kind: json.Unmarshal would leave the
// kind's zero value in its place without an error.
func decodeTuple(rs *schema.Relation, raw []json.RawMessage) (storage.Tuple, error) {
	if len(raw) != rs.Arity() {
		return nil, fmt.Errorf("tuple arity %d, relation %s has %d", len(raw), rs.Name, rs.Arity())
	}
	t := make(storage.Tuple, len(raw))
	for i, rm := range raw {
		attr := rs.Attributes[i]
		if string(rm) == "null" {
			return nil, fmt.Errorf("attribute %s: null is not a value of kind %s", attr.Name, attr.Kind)
		}
		switch attr.Kind {
		case value.KindString:
			var s string
			if err := json.Unmarshal(rm, &s); err != nil {
				return nil, fmt.Errorf("attribute %s: want a string: %v", attr.Name, err)
			}
			t[i] = value.String(s)
		case value.KindInt:
			var n int64
			if err := json.Unmarshal(rm, &n); err != nil {
				return nil, fmt.Errorf("attribute %s: want an integer: %v", attr.Name, err)
			}
			t[i] = value.Int(n)
		case value.KindFloat:
			var f float64
			if err := json.Unmarshal(rm, &f); err != nil {
				return nil, fmt.Errorf("attribute %s: want a number: %v", attr.Name, err)
			}
			t[i] = value.Float(f)
		case value.KindTime:
			var s string
			if err := json.Unmarshal(rm, &s); err != nil {
				return nil, fmt.Errorf("attribute %s: want an RFC3339 string: %v", attr.Name, err)
			}
			ts, err := time.Parse(time.RFC3339, s)
			if err != nil {
				return nil, fmt.Errorf("attribute %s: %v", attr.Name, err)
			}
			t[i] = value.Time(ts)
		default:
			return nil, fmt.Errorf("attribute %s: unsupported kind %s", attr.Name, attr.Kind)
		}
	}
	return t, nil
}

// handleIngest applies per-relation insert/delete batches to the head
// database through the system's journaled mutation API: on a durable
// system every batch reaches the commit log before storage, and in every
// case the system epoch advances. The next /cite reads a head snapshot
// holding the batches, so cached citations that read a changed relation
// are no longer served. Ingest is admission-controlled by the same
// semaphore as /cite, so mutation pressure and citation load share one
// bound.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	ctx := r.Context()
	if s.opts.RequestTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.opts.RequestTimeout)
		defer cancel()
	}
	var req ingestRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, bodyStatus(err), err.Error())
		return
	}
	single := req.Relation != "" || len(req.Insert) > 0 || len(req.Delete) > 0
	batches := req.Batches
	switch {
	case single && len(batches) > 0:
		writeError(w, http.StatusBadRequest, `body must set either "relation"/"insert"/"delete" or "batches", not both`)
		return
	case single:
		batches = []ingestBatch{req.ingestBatch}
	case len(batches) == 0:
		writeError(w, http.StatusBadRequest, `body must set "relation" or a non-empty "batches"`)
		return
	}
	// Decode and validate everything before admission and before applying
	// anything: a malformed batch answers 4xx without mutating state.
	sch := s.sys.Database().Schema()
	type decoded struct {
		relation string
		insert   []storage.Tuple
		delete   []storage.Tuple
	}
	work := make([]decoded, len(batches))
	for bi, b := range batches {
		if b.Relation == "" {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("batch %d: missing relation", bi))
			return
		}
		rs := sch.Relation(b.Relation)
		if rs == nil {
			writeError(w, http.StatusUnprocessableEntity, fmt.Sprintf("batch %d: unknown relation %s", bi, b.Relation))
			return
		}
		if len(b.Insert) == 0 && len(b.Delete) == 0 {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("batch %d (%s): empty batch", bi, b.Relation))
			return
		}
		d := decoded{relation: b.Relation}
		for ti, raw := range b.Delete {
			t, err := decodeTuple(rs, raw)
			if err != nil {
				writeError(w, http.StatusBadRequest, fmt.Sprintf("batch %d (%s): delete tuple %d: %v", bi, b.Relation, ti, err))
				return
			}
			d.delete = append(d.delete, t)
		}
		for ti, raw := range b.Insert {
			t, err := decodeTuple(rs, raw)
			if err != nil {
				writeError(w, http.StatusBadRequest, fmt.Sprintf("batch %d (%s): insert tuple %d: %v", bi, b.Relation, ti, err))
				return
			}
			d.insert = append(d.insert, t)
		}
		work[bi] = d
	}
	if s.sem != nil {
		select {
		case s.sem <- struct{}{}:
			defer func() { <-s.sem }()
		case <-ctx.Done():
			s.metrics.rejected.Add(1)
			writeError(w, http.StatusServiceUnavailable, "admission queue full: "+ctx.Err().Error())
			return
		}
	}
	resp := ingestResponse{Batches: make([]ingestBatchResult, 0, len(work))}
	for _, d := range work {
		res := ingestBatchResult{Relation: d.relation}
		if len(d.delete) > 0 {
			n, err := s.sys.Delete(d.relation, d.delete)
			if err != nil {
				// Validation passed above, so this is the journal's disk.
				writeError(w, http.StatusInternalServerError, err.Error())
				return
			}
			res.Deleted = n
		}
		if len(d.insert) > 0 {
			n, err := s.sys.Insert(d.relation, d.insert)
			if err != nil {
				writeError(w, http.StatusInternalServerError, err.Error())
				return
			}
			res.Inserted = n
		}
		resp.Inserted += res.Inserted
		resp.Deleted += res.Deleted
		resp.Batches = append(resp.Batches, res)
	}
	resp.Epoch = s.sys.Version()
	writeJSON(w, http.StatusOK, resp)
}

// relationInfo is the wire form of one relation's shape and cardinality.
type relationInfo struct {
	Name       string     `json:"name"`
	Arity      int        `json:"arity"`
	Tuples     int        `json:"tuples"`
	Attributes []attrInfo `json:"attributes"`
}

type attrInfo struct {
	Name string `json:"name"`
	Kind string `json:"kind"`
	Key  bool   `json:"key,omitempty"`
}

// handleRelations reports relation names, arities and cardinalities of
// the head's snapshot, or of committed snapshot N with ?version=N (404 on
// unknown versions). The snapshot and the reply's epoch are read under
// one lock, so the counts are exactly those of that epoch.
func (s *Server) handleRelations(w http.ResponseWriter, r *http.Request) {
	v, status, msg := s.citeVersion(r.URL.Query().Get("version"))
	if status != 0 {
		writeError(w, status, msg)
		return
	}
	db, epoch, _, latest, err := s.sys.Snapshot(v)
	if err != nil {
		writeError(w, statusForError(err), err.Error())
		return
	}
	respVersion := int(latest)
	if v > 0 {
		respVersion = int(v)
	}
	sch := db.Schema()
	out := struct {
		Epoch     int64          `json:"epoch"`
		Version   int            `json:"version"`
		Relations []relationInfo `json:"relations"`
	}{Epoch: epoch, Version: respVersion}
	for _, name := range sch.Names() {
		rs := sch.Relation(name)
		info := relationInfo{
			Name:       name,
			Arity:      rs.Arity(),
			Tuples:     db.Relation(name).Len(),
			Attributes: make([]attrInfo, rs.Arity()),
		}
		key := make(map[int]bool, len(rs.Key))
		for _, k := range rs.Key {
			key[k] = true
		}
		for i, a := range rs.Attributes {
			info.Attributes[i] = attrInfo{Name: a.Name, Kind: a.Kind.String(), Key: key[i]}
		}
		out.Relations = append(out.Relations, info)
	}
	writeJSON(w, http.StatusOK, out)
}

// ViewInfo is the wire form of one registered citation view. It is the
// single report shape for views: GET /views serves it and citeviews
// -json embeds it, so the two encodings cannot drift apart.
type ViewInfo struct {
	Name            string        `json:"name"`
	Query           string        `json:"query"`
	Parameterized   bool          `json:"parameterized"`
	Params          []string      `json:"params,omitempty"`
	CitationQueries int           `json:"citation_queries"`
	Static          format.Record `json:"static,omitempty"`
}

// NewViewInfo converts a registered citation view into its wire form.
func NewViewInfo(v *citation.View) ViewInfo {
	return ViewInfo{
		Name:            v.Query.Name,
		Query:           v.Query.String(),
		Parameterized:   v.Query.IsParameterized(),
		Params:          v.Query.Params,
		CitationQueries: len(v.Citations),
		Static:          v.Static,
	}
}

func (s *Server) handleViews(w http.ResponseWriter, r *http.Request) {
	views := s.sys.Registry().Views()
	out := struct {
		Count int        `json:"count"`
		Views []ViewInfo `json:"views"`
	}{Count: len(views), Views: make([]ViewInfo, len(views))}
	for i, v := range views {
		out.Views[i] = NewViewInfo(v)
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	epoch, latest := s.sys.Versions()
	dur, _ := s.sys.Durability()
	writeJSON(w, http.StatusOK, struct {
		Status string `json:"status"`
		// Build is the ldflags-stamped build version, the same string
		// citeserved_build_info and citeserved -version report.
		Build   string `json:"build"`
		Epoch   int64  `json:"epoch"`
		Version int    `json:"version"`
		Views   int    `json:"views"`
		Durable bool   `json:"durable"`
		// RecoveredVersion is the latest committed version rebuilt from
		// the data directory at boot (0 when the process started fresh).
		RecoveredVersion int `json:"recovered_version"`
	}{
		Status:           "ok",
		Build:            Version,
		Epoch:            epoch,
		Version:          int(latest),
		Views:            s.sys.Registry().Len(),
		Durable:          dur.Enabled,
		RecoveredVersion: int(dur.RecoveredVersion),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var b strings.Builder
	s.metrics.render(&b, s)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	fmt.Fprint(w, b.String())
}

// methodOnly rejects every method but the given one with 405.
func (s *Server) methodOnly(method string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != method {
			w.Header().Set("Allow", method)
			writeError(w, http.StatusMethodNotAllowed, "method "+r.Method+" not allowed")
			return
		}
		h(w, r)
	}
}

// decodeBody decodes a bounded JSON request body, rejecting trailing
// garbage. A body over the limit fails with an error bodyStatus maps to
// 413.
func decodeBody(w http.ResponseWriter, r *http.Request, into any) error {
	// Past the limit, MaxBytesReader asks net/http to close the
	// connection rather than drain the rest of the body, through a hook
	// only net/http's own writer has, so it gets the innermost one.
	for {
		u, ok := w.(interface{ Unwrap() http.ResponseWriter })
		if !ok {
			break
		}
		w = u.Unwrap()
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, defaultBodyLimit))
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		return fmt.Errorf("invalid request body: %w", err)
	}
	// More reports false before a closing delimiter, so a stray '}' or
	// ']' would slip past it; only end of input ends a valid body.
	if _, err := dec.Token(); err != io.EOF {
		if bodyStatus(err) == http.StatusRequestEntityTooLarge {
			return fmt.Errorf("invalid request body: %w", err)
		}
		return errors.New("invalid request body: trailing data")
	}
	return nil
}

// bodyStatus maps a decodeBody error to its status: 413 for a body over
// the limit, else 400.
func bodyStatus(err error) int {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// writeJSON encodes v onto the response, indented. /cite replies are
// written around cached bytes instead (writeCite), which must equal
// what this gives for the same reply.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	// The status is already sent, so an error here has nowhere to go.
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, struct {
		Error string `json:"error"`
	}{Error: msg})
}
