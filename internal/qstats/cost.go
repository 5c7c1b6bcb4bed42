package qstats

import (
	"sync"
	"time"

	"repro/internal/cq"
	"repro/internal/trace"
)

// Costs is one request's (or one query's share of a request's) cost
// vector, extracted from a finished trace's span tree. Fields are plain
// int64s — accumulation into a fingerprint row happens with atomic adds
// on the row side, so a Costs value is just a message.
//
// Durations are nanoseconds. Stage times are per-span sums: a request
// that materialized three views contributes three `views` durations to
// ViewsNS. Nested stages each report their own wall time (eval contains
// branch contains plan), exactly like the stage histograms — the fields
// are per-stage totals, not a partition of WallNS.
type Costs struct {
	WallNS      int64 // whole request, root span
	AdmissionNS int64 // wait on the in-flight semaphore
	CacheNS     int64 // result-cache acquire
	ParseNS     int64
	RewriteNS   int64
	EvalNS      int64
	BranchNS    int64
	ViewsNS     int64
	PlanNS      int64
	PolicyNS    int64
	FixityNS    int64
	EncodeNS    int64

	TuplesExamined int64 // candidate tuples examined across all join depths
	OutTuples      int64 // distinct result tuples enumerated
	Branches       int64 // alternative rewritings evaluated
	Pruned         int64 // rewritings pruned before evaluation
	ColumnarSteps  int64 // join steps served from columnar blocks (§10)

	// View-cache traffic (DESIGN.md §3): view lookups served from cache
	// vs materialized.
	ViewHits, ViewMisses int64

	// Result-cache outcome of the query itself; set per query from the
	// server's per-result outcome, not from the trace.
	ResultHits, ResultMisses, ResultCoalesced int64

	RespBytes int64
	Calls     int64
	Errors    int64
}

// FromTrace reduces a finished trace to its request-level cost vector
// by walking the span tree once: stage durations by span name, work
// counters and cache decisions from span attributes. Spans still open
// (a detached computation outliving its client) contribute their
// attributes but no duration, matching the stage histograms.
func FromTrace(tr *trace.Trace) Costs {
	var c Costs
	if tr == nil {
		return c
	}
	c.WallNS = int64(tr.Duration())
	root := tr.Root()
	root.Visit(func(s *trace.Span) {
		d := int64(s.Duration())
		switch s.Name() {
		case "admission":
			c.AdmissionNS += d
		case "cache":
			c.CacheNS += d
		case "parse":
			c.ParseNS += d
		case "rewrite":
			c.RewriteNS += d
		case "eval":
			c.EvalNS += d
		case "branch":
			c.BranchNS += d
		case "views":
			c.ViewsNS += d
			if v, _ := s.Attr("cache"); v == "hit" {
				c.ViewHits++
			} else {
				c.ViewMisses++
			}
		case "plan":
			c.PlanNS += d
		case "policy":
			c.PolicyNS += d
		case "fixity":
			c.FixityNS += d
		case "encode":
			c.EncodeNS += d
			c.RespBytes += s.AttrInt("bytes")
		}
		// Work counters are attached to whichever span ran the plan
		// (the eval span, or a branch span under it), exactly once per
		// run — summing across all spans is exact.
		c.TuplesExamined += s.AttrInt("tuples_examined")
		c.OutTuples += s.AttrInt("out_tuples")
		c.ColumnarSteps += s.AttrInt("columnar_steps")
		c.Branches += s.AttrInt("branches")
		c.Pruned += s.AttrInt("pruned")
	})
	return c
}

// Outcome is one query's result within a served request: the raw query
// text, its result-cache outcome ("hit", "miss" or "coalesced"; ""
// when the request died before the cache) and whether it failed.
type Outcome struct {
	Query string
	Cache string
	Err   bool
}

// share splits total across n recipients, handing recipient i its
// share. The first recipient absorbs the remainder so the split
// conserves the total exactly.
func share(total int64, n, i int) int64 {
	if n <= 1 {
		return total
	}
	s := total / int64(n)
	if i == 0 {
		return total - s*int64(n-1)
	}
	return s
}

// fpEntry is one memoized fingerprinting: raw query text → canonical
// fingerprint + constant-binding hash. Distinct raw texts with equal
// shapes memoize separately (their hashes differ), so the entry is
// immutable.
type fpEntry struct {
	fp   string
	hash uint64
}

// fpCache memoizes Parse+Fingerprint per raw query text. The warm path
// (a repeated query string) is one lock-free sync.Map load, no parsing,
// and a text the engine parsed is filled from its parse (Remember).
// An insert costs O(1) whatever the memo holds, which matters because
// the keys are raw texts: under a stream of distinct constants nearly
// every request inserts. Inserts are counted under mu, and the whole
// memo is dropped once it holds maxFPCache entries — the working set of
// distinct raw texts re-warms in one round.
type fpCache struct {
	m  sync.Map // raw query text → fpEntry
	mu sync.Mutex
	n  int // entries inserted since the last drop; guarded by mu
}

const maxFPCache = 4096

// ObserveRequest feeds one finished request into the store: the trace
// is reduced to a cost vector once, then attributed to each query's
// fingerprint row.
//
// Attribution rule: per-query facts (the call itself, the error flag,
// the result-cache outcome) are exact. Request-level costs are split —
// engine costs (parse through fixity, tuples, engine-cache traffic) are
// divided among the queries that owned a computation (cache misses),
// since hit and coalesced queries did no engine work; envelope costs
// (wall, admission, cache lookup, encode, bytes) are divided among all
// queries. Single-query requests — the common case — are exact
// throughout. Queries that do not parse are skipped: there is no shape
// to aggregate under, and the request already counted its error.
func (s *Store) ObserveRequest(tr *trace.Trace, outcomes []Outcome) {
	if s == nil || tr == nil || len(outcomes) == 0 {
		return
	}
	c := FromTrace(tr)
	misses := 0
	for _, o := range outcomes {
		if o.Cache == "miss" {
			misses = misses + 1
		}
	}
	n := len(outcomes)
	mi := 0 // index among misses
	for i, o := range outcomes {
		fp, hash, ok := s.fingerprint(o.Query)
		isMiss := o.Cache == "miss"
		if isMiss {
			mi++
		}
		if !ok {
			continue
		}
		q := Costs{
			Calls:       1,
			WallNS:      share(c.WallNS, n, i),
			AdmissionNS: share(c.AdmissionNS, n, i),
			CacheNS:     share(c.CacheNS, n, i),
			EncodeNS:    share(c.EncodeNS, n, i),
			RespBytes:   share(c.RespBytes, n, i),
		}
		if o.Err {
			q.Errors = 1
		}
		switch o.Cache {
		case "hit":
			q.ResultHits = 1
		case "miss":
			q.ResultMisses = 1
		case "coalesced":
			q.ResultCoalesced = 1
		}
		// Engine costs go to the miss owners; when nothing missed (all
		// hits/coalesced/errors) they are residual (≈0) and split evenly
		// so nothing is dropped.
		en, ei := misses, mi-1
		if misses == 0 {
			en, ei = n, i
		}
		if isMiss || misses == 0 {
			q.ParseNS = share(c.ParseNS, en, ei)
			q.RewriteNS = share(c.RewriteNS, en, ei)
			q.EvalNS = share(c.EvalNS, en, ei)
			q.BranchNS = share(c.BranchNS, en, ei)
			q.ViewsNS = share(c.ViewsNS, en, ei)
			q.PlanNS = share(c.PlanNS, en, ei)
			q.PolicyNS = share(c.PolicyNS, en, ei)
			q.FixityNS = share(c.FixityNS, en, ei)
			q.TuplesExamined = share(c.TuplesExamined, en, ei)
			q.OutTuples = share(c.OutTuples, en, ei)
			q.Branches = share(c.Branches, en, ei)
			q.Pruned = share(c.Pruned, en, ei)
			q.ColumnarSteps = share(c.ColumnarSteps, en, ei)
			q.ViewHits = share(c.ViewHits, en, ei)
			q.ViewMisses = share(c.ViewMisses, en, ei)
		}
		s.Observe(fp, hash, q)
	}
}

// fingerprint resolves a raw query text to its constant-normalized
// fingerprint and constant-binding hash, memoized per text.
func (s *Store) fingerprint(query string) (string, uint64, bool) {
	if v, ok := s.fps.m.Load(query); ok {
		e := v.(fpEntry)
		return e.fp, e.hash, e.fp != ""
	}
	var e fpEntry
	if q, err := cq.Parse(query); err == nil {
		e = fingerprintOf(q)
	}
	// e.fp == "" memoizes the parse failure, so a client hammering one
	// malformed query does not re-parse it per request.
	s.fps.store(query, e)
	return e.fp, e.hash, e.fp != ""
}

// Remember memoizes the fingerprint of the query text from q, the
// engine's parse of that text, so ObserveRequest finds the text
// fingerprinted and does not parse it again. The server calls it for
// every citation it computes, before publishing the result; a text
// already memoized is left as it is. A nil store or query does nothing.
func (s *Store) Remember(query string, q *cq.Query) {
	if s == nil || q == nil {
		return
	}
	if _, ok := s.fps.m.Load(query); ok {
		return
	}
	s.fps.store(query, fingerprintOf(q))
}

// fingerprintOf is q's memo entry.
func fingerprintOf(q *cq.Query) fpEntry {
	fp, consts := q.Fingerprint()
	return fpEntry{fp: fp, hash: cq.ConstHash(consts)}
}

// store inserts e under the query text, dropping the whole memo first
// when it is full. A concurrent insert of the same text keeps the first
// entry.
func (c *fpCache) store(query string, e fpEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.n >= maxFPCache {
		c.m.Clear()
		c.n = 0
	}
	if _, loaded := c.m.LoadOrStore(query, e); !loaded {
		c.n++
	}
}

// observedWall is the duration a per-fingerprint latency histogram
// records for one call: the query's share of the request wall time.
func (c Costs) observedWall() time.Duration { return time.Duration(c.WallNS) }
