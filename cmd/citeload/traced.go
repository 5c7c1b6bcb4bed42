package main

import (
	"bufio"
	"cmp"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"slices"
	"strconv"
	"sync"
	"time"

	"repro/internal/fixity"
	"repro/internal/server"
	"repro/internal/storage"
	"repro/internal/trace"
)

// opHeader carries the op index from the client to the harness span
// around the handler, so each echoed span tree is grafted under the
// harness span of its own request.
const opHeader = "X-Citeload-Op"

// stageMetric names the per-layer metric each program span's self time
// counts toward. A span with a name not listed here counts toward its
// parent's metric, so a stage added to the program later still lands
// somewhere. The root span ("cite") is the server's own time.
var stageMetric = map[string]string{
	"cite":      "server.self_us",
	"encode":    "server.self_us",
	"admission": "server.admission_us",
	"cache":     "server.cache_us",
	"parse":     "cq.parse_us",
	"rewrite":   "citation.rewrite_us",
	"views":     "citation.views_us",
	"plan":      "citation.plan_us",
	"policy":    "citation.policy_us",
	"eval":      "eval.eval_us",
	"branch":    "eval.eval_us",
	"fixity":    "fixity.pin_us",
}

// stageMetrics lists stageMetric's values once each, in report order.
var stageMetrics = []string{
	"server.self_us", "server.admission_us", "server.cache_us", "cq.parse_us",
	"citation.rewrite_us", "citation.views_us", "citation.plan_us",
	"citation.policy_us", "eval.eval_us", "fixity.pin_us",
}

// harnessSpan is the span the harness records around one ServeHTTP call.
type harnessSpan struct {
	start time.Time
	dur   time.Duration
}

// recorder keeps the harness spans of one traced pass in memory.
type recorder struct {
	mu    sync.Mutex
	spans []harnessSpan // by op index
}

// wrap returns h with a harness span recorded around every request that
// carries an op index.
func (r *recorder) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		i, err := strconv.Atoi(req.Header.Get(opHeader))
		start := time.Now()
		h.ServeHTTP(w, req)
		d := time.Since(start)
		if err != nil {
			return // set-up traffic, not an op
		}
		r.mu.Lock()
		defer r.mu.Unlock()
		if i >= 0 && i < len(r.spans) {
			r.spans[i] = harnessSpan{start, d}
		}
	})
}

// echo is what one traced cite's reply told the harness: the program's
// trace (its span tree only when the spans are dumped), per stage its
// self time, and the counts its span attributes carry.
type echo struct {
	snap    trace.TraceSnapshot
	covered time.Duration            // root children's union, from the trace start
	self    map[string]time.Duration // stage metric → self time
	counts  counts
}

// counts sums span attributes by name: "rewrite.candidates_examined",
// or "<span>.spans" and "<span>.hits" for the spans and their cache hits.
type counts map[string]float64

// tracer collects a traced pass's echoes and digest probes as the two
// clients deliver them.
type tracer struct {
	keepSpans bool
	echoes    []*echo // by op index; each slot written by one client

	mu      sync.Mutex
	self    map[string]time.Duration
	tot     counts
	digests []float64 // µs
}

// observe reads op i's reply and folds its self times and counts into
// the pass totals.
func (t *tracer) observe(i int, body []byte) {
	e := readEcho(body, t.keepSpans)
	if e == nil {
		return
	}
	t.mu.Lock()
	for k, v := range e.self {
		t.self[k] += v
	}
	for k, v := range e.counts {
		t.tot[k] += v
	}
	t.mu.Unlock()
	e.self, e.counts = nil, nil
	t.echoes[i] = e
}

// probe times one digest of the whole head database, the work a durable
// commit does to seal a version.
func (t *tracer) probe(db *storage.Database) {
	start := time.Now()
	fixity.DatabaseDigest(db)
	d := float64(time.Since(start).Nanoseconds()) / 1e3
	t.mu.Lock()
	t.digests = append(t.digests, d)
	t.mu.Unlock()
}

// tracedPass serves the stream again on a fresh system built with trace
// echo on, every cite asking for its span tree, and the harness's span
// around every request. After each commit it probes the database digest,
// outside the op's timing. It derives the per-layer self times and
// counts, and compares the cites' latency with the same cites' in the
// timed pass. With cfg.spans set it writes every span as a JSON line.
func tracedPass(w workload, cfg config, st stream, timed *outcome, m map[string]metric) error {
	ops := st.Ops[:min(w.TracedOps, len(st.Ops))]
	rec := &recorder{spans: make([]harnessSpan, len(ops))}
	s, _, err := setUp(w, cfg.tmp, server.Options{TraceEcho: true}, rec.wrap)
	if err != nil {
		return fmt.Errorf("traced set-up: %w", err)
	}
	defer s.remove()

	out := newOutcome(stream{Ops: ops})
	for i, o := range ops {
		out.keep[i] = o.Kind == opCite
	}
	t := &tracer{keepSpans: cfg.spans != "", echoes: make([]*echo, len(ops)),
		self: make(map[string]time.Duration), tot: make(counts)}
	client := newClient()
	defer client.CloseIdleConnections()
	begin := time.Now()
	drive(client, s.ts.URL, ops, 0, len(ops), out, hooks{
		header: opHeader,
		suffix: func(o op) string {
			switch {
			case o.Kind != opCite:
				return ""
			case o.Version > 0:
				return "&trace=1"
			}
			return "?trace=1"
		},
		after: func(i int) {
			switch ops[i].Kind {
			case opCommit:
				t.probe(s.sys.Database())
			case opCite:
				if out.status[i] == http.StatusOK {
					t.observe(i, out.body[i])
				}
				out.body[i] = nil
			}
		},
	})
	if len(t.digests) == 0 {
		// No commits in this workload: probe a few times anyway, so the
		// digest cost of every workload's database is known.
		for range 5 {
			t.probe(s.sys.Database())
		}
	}
	// Closing the listener waits for every handler, so all harness spans
	// are recorded before they are read.
	s.ts.Close()
	rec.mu.Lock()
	defer rec.mu.Unlock()

	var cites int
	var serveCites, unattributed, tracedLat, timedLat time.Duration
	writeUS := make(map[opKind][]float64)
	for i, o := range ops {
		h := rec.spans[i]
		if o.Kind != opCite {
			if out.status[i] == http.StatusOK {
				writeUS[o.Kind] = append(writeUS[o.Kind], float64(h.dur.Nanoseconds())/1e3)
			}
			continue
		}
		e := t.echoes[i]
		if e == nil {
			continue
		}
		cites++
		serveCites += h.dur
		tracedLat += out.lat[i]
		timedLat += timed.lat[i]
		// The program's trace starts after routing and body decoding, and
		// its root span ends when the handler returns, with the harness
		// span: what precedes the trace is covered by no program span.
		pre := max(e.snap.Start.Sub(h.start), 0)
		unattributed += pre
		t.self["server.self_us"] += max(h.dur-pre-e.covered, 0)
	}
	if cites == 0 {
		return fmt.Errorf("traced pass: no cite echoed a trace")
	}
	for _, k := range stageMetrics {
		m[k] = metric{float64(t.self[k].Nanoseconds()) / 1e3 / float64(cites), "us", cites}
	}
	m["fixity.digest_us"] = metric{median(t.digests), "us", len(t.digests)}
	m["load.unattributed_pct"] = metric{100 * ratio(float64(unattributed), float64(serveCites)), "%", cites}
	m["load.trace_overhead_pct"] = metric{100 * (ratio(float64(tracedLat), float64(timedLat)) - 1), "%", cites}
	if xs := writeUS[opIngest]; len(xs) > 0 {
		m["core.ingest_us"] = metric{median(xs), "us", len(xs)}
	}
	if xs := writeUS[opCommit]; len(xs) > 0 {
		m["core.commit_us"] = metric{median(xs), "us", len(xs)}
	}
	t.tot.report(m)

	if cfg.spans != "" {
		return writeSpans(cfg.spans, w.Name, begin, ops, rec.spans, t.echoes)
	}
	return nil
}

// readEcho decodes a traced cite's reply and computes each stage's self
// time and the attribute counts. keep retains the span tree for the
// span dump.
func readEcho(body []byte, keep bool) *echo {
	var env struct {
		Trace *trace.TraceSnapshot `json:"trace"`
	}
	if json.Unmarshal(body, &env) != nil || env.Trace == nil {
		return nil
	}
	e := &echo{snap: *env.Trace, self: make(map[string]time.Duration), counts: make(counts)}
	root := env.Trace.Root
	e.covered = covered(root.Children, 0, -1)
	for _, c := range root.Children {
		selfTimes(c, stageMetric["cite"], e.self)
	}
	e.counts.add(root)
	if !keep {
		e.snap.Root = trace.SpanSnapshot{}
	}
	return e
}

// selfTimes adds the self time of sp and of every span below it to
// self, under each span's stage metric.
func selfTimes(sp trace.SpanSnapshot, parentMetric string, self map[string]time.Duration) {
	metricName, ok := stageMetric[sp.Name]
	if !ok {
		metricName = parentMetric
	}
	d := time.Duration(sp.DurUS) * time.Microsecond
	self[metricName] += max(d-covered(sp.Children, sp.StartUS, sp.StartUS+sp.DurUS), 0)
	for _, c := range sp.Children {
		selfTimes(c, metricName, self)
	}
}

// covered returns the length of the union of the spans' intervals,
// clipped to [lo, hi) in microseconds from the trace start (hi < 0: no
// upper clip). Sibling spans overlap when they ran in parallel.
func covered(spans []trace.SpanSnapshot, lo, hi int64) time.Duration {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, c := range spans {
		a, b := max(c.StartUS, lo), c.StartUS+c.DurUS
		if hi >= 0 {
			b = min(b, hi)
		}
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	slices.SortFunc(ivs, func(x, y iv) int { return cmp.Compare(x.a, y.a) })
	var total, end int64 = 0, -1 << 62
	for _, v := range ivs {
		if v.a > end {
			total += v.b - v.a
			end = v.b
		} else if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return time.Duration(total) * time.Microsecond
}

// countedAttrs are the numeric span attributes the count metrics use.
var countedAttrs = map[string][]string{
	"rewrite": {"candidates_examined", "rewritings_found"},
	"eval":    {"branches", "pruned"},
	"branch":  {"tuples_examined", "out_tuples", "columnar_steps"},
	"policy":  {"atoms_resolved"},
}

// add folds the span tree below sp into c.
func (c counts) add(sp trace.SpanSnapshot) {
	c[sp.Name+".spans"]++
	if sp.Attrs["cache"] == "hit" {
		c[sp.Name+".hits"]++
	}
	for _, k := range countedAttrs[sp.Name] {
		switch v := sp.Attrs[k].(type) {
		case float64:
			c[sp.Name+"."+k] += v
		case bool:
			if v {
				c[sp.Name+"."+k]++
			}
		}
	}
	for _, ch := range sp.Children {
		c.add(ch)
	}
}

// report writes the count metrics. Per-cite counts are per cite the
// engine computed (one rewrite span each); result-cache hits do none of
// this work.
func (c counts) report(m map[string]metric) {
	engine := c["rewrite.spans"]
	n := int(engine)
	per := func(k string) float64 { return ratio(c[k], engine) }
	m["rewrite.candidates_per_cite"] = metric{per("rewrite.candidates_examined"), "count", n}
	m["rewrite.yield_ratio"] = metric{ratio(c["rewrite.rewritings_found"], c["rewrite.candidates_examined"]), "ratio", n}
	m["eval.tuples_examined_per_cite"] = metric{per("branch.tuples_examined"), "count", n}
	m["eval.yield_ratio"] = metric{ratio(c["branch.out_tuples"], c["branch.tuples_examined"]), "ratio", n}
	m["eval.branches_per_cite"] = metric{per("eval.branches"), "count", n}
	m["eval.pruned_per_cite"] = metric{per("eval.pruned"), "count", n}
	m["storage.columnar_steps_per_cite"] = metric{per("branch.columnar_steps"), "count", n}
	m["policy.atoms_resolved_per_cite"] = metric{per("policy.atoms_resolved"), "count", n}
	hits := func(span string) metric {
		return metric{ratio(c[span+".hits"], c[span+".spans"]), "ratio", int(c[span+".spans"])}
	}
	m["citation.view_hit_ratio"] = hits("views")
	m["citation.plan_hit_ratio"] = hits("plan")
	m["citation.branch_hit_ratio"] = hits("branch")
}

// spanLine is one span of the dump.
type spanLine struct {
	Trace   string         `json:"trace_id"`
	ID      int            `json:"span_id"`
	Parent  int            `json:"parent"` // 0: a harness span, the root of its op
	Name    string         `json:"name"`
	StartUS float64        `json:"start_us"` // from the start of the traced pass
	DurUS   float64        `json:"dur_us"`
	Attrs   map[string]any `json:"attrs,omitempty"`
}

// writeSpans dumps every op's harness span and, for traced cites, the
// program's span tree grafted beneath it. An echoed root is still open
// when the program snapshots it, so its end is taken as the harness
// span's end.
func writeSpans(path, workloadName string, begin time.Time, ops []op, hs []harnessSpan, echoes []*echo) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	err = encodeSpans(json.NewEncoder(bw), workloadName, begin, ops, hs, echoes)
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func encodeSpans(enc *json.Encoder, workloadName string, begin time.Time, ops []op, hs []harnessSpan, echoes []*echo) error {
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	id := 0
	for i, o := range ops {
		h, e := hs[i], echoes[i]
		id++
		harnessID := id
		traceID := fmt.Sprintf("%s-%d", workloadName, i)
		if e != nil {
			traceID = e.snap.ID
		}
		if err := enc.Encode(spanLine{Trace: traceID, ID: harnessID, Name: "load." + o.Kind.String(),
			StartUS: us(h.start.Sub(begin)), DurUS: us(h.dur), Attrs: map[string]any{"op": i, "path": o.Path}}); err != nil {
			return err
		}
		if e == nil {
			continue
		}
		base := us(e.snap.Start.Sub(begin))
		var emit func(sp trace.SpanSnapshot, parent int, dur float64) error
		emit = func(sp trace.SpanSnapshot, parent int, dur float64) error {
			id++
			me := id
			if err := enc.Encode(spanLine{Trace: traceID, ID: me, Parent: parent, Name: sp.Name,
				StartUS: base + float64(sp.StartUS), DurUS: dur, Attrs: sp.Attrs}); err != nil {
				return err
			}
			for _, c := range sp.Children {
				if err := emit(c, me, float64(c.DurUS)); err != nil {
					return err
				}
			}
			return nil
		}
		if err := emit(e.snap.Root, harnessID, us(h.start.Add(h.dur).Sub(e.snap.Start))); err != nil {
			return err
		}
	}
	return nil
}
