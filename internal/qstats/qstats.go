// Package qstats is the server's per-query statistics store — the
// pg_stat_statements of the citation engine. Each sampled request's
// finished trace is reduced to a cost vector (wall time, admission
// wait, per-stage engine time, tuples examined, cache traffic per
// layer, response bytes) and accumulated under the query's *fingerprint*
// — its constant-normalized canonical form (cq.Query.Fingerprint), so
// requests that differ only in constant bindings share one row while
// the distinct-binding cardinality is still counted.
//
// Memory is fixed: the store is a Space-Saving-style top-K sketch
// (default 256 fingerprints). A new fingerprint arriving at capacity
// displaces the row with the fewest calls; the newcomer starts from
// zero but records the displaced row's call count as its error bound
// (DisplacedCalls), and the store-level eviction counter tells an
// operator when the sketch is saturated — rows near the bottom of a
// saturated sketch are approximate, rows at the top are not (a heavy
// hitter's row is never the minimum, so it is never displaced).
//
// Concurrency follows trace.HistogramVec's discipline: the fingerprint
// table is copy-on-write behind an atomic pointer, so observing a known
// fingerprint is lock-free — one atomic load, a map read, and atomic
// adds into the row's cost vector plus a lock-free histogram bucket
// increment. A mutex serializes only table mutations (insert, displace,
// Reset). Reset is generation-stamped: it swaps in a fresh table and
// bumps the generation, and observations racing the swap may land in
// the retiring table and be lost — accounting, not accuracy-critical
// state, so the race is tolerated and documented.
package qstats

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/trace"
)

// DefaultK is the default sketch width (tracked fingerprints).
const DefaultK = 256

// maxDistinctConsts bounds the per-row set of distinct constant-binding
// hashes. Past the bound the row stops inserting and reports the count
// as a lower bound (DistinctConstsOverflow).
const maxDistinctConsts = 4096

// row is one fingerprint's accumulator. All cost fields are atomics;
// the only lock is the small per-row mutex guarding the distinct-
// constants set.
type row struct {
	fingerprint string
	// displaced is the Space-Saving error bound: the call count of the
	// row this one displaced when the sketch was full (0 for rows that
	// found a free slot). This row's true totals may exceed its counters
	// by up to that many earlier, unrecorded calls.
	displaced int64

	calls, errors atomic.Int64
	wall, admission, cacheNS, parse, rewrite, eval,
	branch, views, plan, policy, fixity, encode atomic.Int64
	tuples, outTuples, branches, pruned, columnar atomic.Int64
	viewHits, viewMisses                          atomic.Int64
	resultHits, resultMisses, resultCoalesced     atomic.Int64
	respBytes                                     atomic.Int64

	hist *trace.Histogram // per-call wall-time latency

	mu             sync.Mutex
	consts         map[uint64]struct{}
	constsOverflow bool
}

func newRow(fp string, displaced int64) *row {
	return &row{
		fingerprint: fp,
		displaced:   displaced,
		hist:        trace.NewHistogram(nil),
		consts:      make(map[uint64]struct{}, 4),
	}
}

// add accumulates one call's cost share. Lock-free except for the
// distinct-constants set.
func (r *row) add(constHash uint64, c Costs) {
	r.calls.Add(c.Calls)
	r.errors.Add(c.Errors)
	r.wall.Add(c.WallNS)
	r.admission.Add(c.AdmissionNS)
	r.cacheNS.Add(c.CacheNS)
	r.parse.Add(c.ParseNS)
	r.rewrite.Add(c.RewriteNS)
	r.eval.Add(c.EvalNS)
	r.branch.Add(c.BranchNS)
	r.views.Add(c.ViewsNS)
	r.plan.Add(c.PlanNS)
	r.policy.Add(c.PolicyNS)
	r.fixity.Add(c.FixityNS)
	r.encode.Add(c.EncodeNS)
	r.tuples.Add(c.TuplesExamined)
	r.outTuples.Add(c.OutTuples)
	r.branches.Add(c.Branches)
	r.pruned.Add(c.Pruned)
	r.columnar.Add(c.ColumnarSteps)
	r.viewHits.Add(c.ViewHits)
	r.viewMisses.Add(c.ViewMisses)
	r.resultHits.Add(c.ResultHits)
	r.resultMisses.Add(c.ResultMisses)
	r.resultCoalesced.Add(c.ResultCoalesced)
	r.respBytes.Add(c.RespBytes)
	r.hist.Observe(c.observedWall())
	r.mu.Lock()
	if _, ok := r.consts[constHash]; !ok {
		if len(r.consts) < maxDistinctConsts {
			r.consts[constHash] = struct{}{}
		} else {
			r.constsOverflow = true
		}
	}
	r.mu.Unlock()
}

// table is one generation of the sketch. Replaced wholesale by Reset;
// its row map is replaced copy-on-write by inserts.
type table struct {
	gen   int64
	since time.Time
	rows  atomic.Pointer[map[string]*row]
}

// Store is the fixed-memory per-query statistics sketch.
type Store struct {
	k  int
	mu sync.Mutex // serializes table/row-map swaps (insert, displace, Reset)
	t  atomic.Pointer[table]

	evicted      atomic.Int64 // fingerprints displaced at capacity
	observations atomic.Int64 // calls observed (all fingerprints, ever)

	fps fpCache
}

// NewStore builds a store tracking the top k fingerprints (k <= 0 means
// DefaultK).
func NewStore(k int) *Store {
	if k <= 0 {
		k = DefaultK
	}
	s := &Store{k: k}
	s.t.Store(newTable(1))
	return s
}

func newTable(gen int64) *table {
	t := &table{gen: gen, since: time.Now().UTC()}
	m := make(map[string]*row)
	t.rows.Store(&m)
	return t
}

// K returns the sketch width.
func (s *Store) K() int { return s.k }

// Observe accumulates one call's cost share under the fingerprint.
// constHash identifies the constant binding for distinct counting.
func (s *Store) Observe(fp string, constHash uint64, c Costs) {
	if s == nil {
		return
	}
	s.observations.Add(c.Calls)
	t := s.t.Load()
	if r := (*t.rows.Load())[fp]; r != nil {
		r.add(constHash, c)
		return
	}
	s.mu.Lock()
	// Reload under the lock: the table may have been reset and the row
	// inserted by a racing observer since the fast-path read.
	t = s.t.Load()
	old := *t.rows.Load()
	r := old[fp]
	if r == nil {
		var displaced int64
		var victim string
		if len(old) >= s.k {
			// Space-Saving displacement: the minimum-calls row makes way.
			min := int64(-1)
			for f, cand := range old {
				if c := cand.calls.Load(); min < 0 || c < min {
					min, victim = c, f
				}
			}
			displaced = min
		}
		next := make(map[string]*row, len(old)+1)
		for f, cand := range old {
			next[f] = cand
		}
		if victim != "" {
			delete(next, victim)
			s.evicted.Add(1)
		}
		r = newRow(fp, displaced)
		next[fp] = r
		t.rows.Store(&next)
	}
	s.mu.Unlock()
	r.add(constHash, c)
}

// Reset discards every row and starts a new generation. In-flight
// observations racing the swap may land in the retired table and
// vanish; the generation stamp in Snapshot lets consumers detect the
// discontinuity.
func (s *Store) Reset() {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.t.Store(newTable(s.t.Load().gen + 1))
	s.mu.Unlock()
}

// Stats is the store's own accounting, served beside the rows.
type Stats struct {
	K          int       `json:"k"`
	Tracked    int       `json:"tracked"`
	Generation int64     `json:"generation"`
	Since      time.Time `json:"since"`
	// Evicted counts fingerprints displaced at capacity over the store's
	// whole lifetime (not reset by Reset): a growing value means the
	// sketch is saturated and low-calls rows are approximate.
	Evicted      int64 `json:"evicted_total"`
	Observations int64 `json:"observations_total"`
}

// Stats snapshots the store-level counters.
func (s *Store) Stats() Stats {
	t := s.t.Load()
	return Stats{
		K:            s.k,
		Tracked:      len(*t.rows.Load()),
		Generation:   t.gen,
		Since:        t.since,
		Evicted:      s.evicted.Load(),
		Observations: s.observations.Load(),
	}
}

// RowSnapshot is the wire form of one fingerprint row. Durations are
// milliseconds (totals; MeanMS and the quantiles are per call).
type RowSnapshot struct {
	Fingerprint    string `json:"fingerprint"`
	Calls          int64  `json:"calls"`
	Errors         int64  `json:"errors,omitempty"`
	DistinctConsts int64  `json:"distinct_consts"`
	// DistinctConstsOverflow marks DistinctConsts as a lower bound (the
	// per-row binding set hit its cap).
	DistinctConstsOverflow bool `json:"distinct_consts_overflow,omitempty"`
	// DisplacedCalls is the Space-Saving error bound: calls the row this
	// one displaced had accumulated. 0 means the row's counts are exact
	// since the last reset.
	DisplacedCalls int64 `json:"displaced_calls,omitempty"`

	TotalMS float64 `json:"total_ms"`
	MeanMS  float64 `json:"mean_ms"`
	P50MS   float64 `json:"p50_ms"`
	P95MS   float64 `json:"p95_ms"`
	P99MS   float64 `json:"p99_ms"`

	AdmissionMS float64 `json:"admission_ms"`
	CacheMS     float64 `json:"cache_ms"`
	ParseMS     float64 `json:"parse_ms"`
	RewriteMS   float64 `json:"rewrite_ms"`
	EvalMS      float64 `json:"eval_ms"`
	BranchMS    float64 `json:"branch_ms"`
	ViewsMS     float64 `json:"views_ms"`
	PlanMS      float64 `json:"plan_ms"`
	PolicyMS    float64 `json:"policy_ms"`
	FixityMS    float64 `json:"fixity_ms"`
	EncodeMS    float64 `json:"encode_ms"`

	TuplesExamined int64 `json:"tuples_examined"`
	OutTuples      int64 `json:"out_tuples"`
	Branches       int64 `json:"branches"`
	Pruned         int64 `json:"pruned"`
	ColumnarSteps  int64 `json:"columnar_steps"`

	ResultHits      int64 `json:"result_cache_hits"`
	ResultMisses    int64 `json:"result_cache_misses"`
	ResultCoalesced int64 `json:"result_cache_coalesced"`
	ViewHits        int64 `json:"view_cache_hits"`
	ViewMisses      int64 `json:"view_cache_misses"`

	RespBytes int64 `json:"resp_bytes"`
}

// Sort keys accepted by Snapshot.
const (
	SortTotalTime = "total_time"
	SortCalls     = "calls"
	SortTuples    = "tuples"
)

// ValidSort reports whether key names a supported sort order ("" means
// the default, SortTotalTime).
func ValidSort(key string) bool {
	switch key {
	case "", SortTotalTime, SortCalls, SortTuples:
		return true
	}
	return false
}

const msPerNS = 1e-6

// Snapshot renders up to limit rows (limit <= 0 means all), sorted
// descending by the given key, plus the store-level stats. Rows are
// read with atomic loads while observations continue; a row's fields
// are individually torn-free but mutually unsynchronized, the usual
// statistics-scrape contract.
func (s *Store) Snapshot(sortKey string, limit int) (Stats, []RowSnapshot) {
	st := s.Stats()
	rows := *s.t.Load().rows.Load()
	out := make([]RowSnapshot, 0, len(rows))
	for _, r := range rows {
		calls := r.calls.Load()
		if calls == 0 {
			// A row displaced before its first add completed, or racing
			// its very first observation — nothing to report yet.
			continue
		}
		hs := r.hist.Snapshot()
		snap := RowSnapshot{
			Fingerprint:     r.fingerprint,
			Calls:           calls,
			Errors:          r.errors.Load(),
			DisplacedCalls:  r.displaced,
			TotalMS:         float64(r.wall.Load()) * msPerNS,
			AdmissionMS:     float64(r.admission.Load()) * msPerNS,
			CacheMS:         float64(r.cacheNS.Load()) * msPerNS,
			ParseMS:         float64(r.parse.Load()) * msPerNS,
			RewriteMS:       float64(r.rewrite.Load()) * msPerNS,
			EvalMS:          float64(r.eval.Load()) * msPerNS,
			BranchMS:        float64(r.branch.Load()) * msPerNS,
			ViewsMS:         float64(r.views.Load()) * msPerNS,
			PlanMS:          float64(r.plan.Load()) * msPerNS,
			PolicyMS:        float64(r.policy.Load()) * msPerNS,
			FixityMS:        float64(r.fixity.Load()) * msPerNS,
			EncodeMS:        float64(r.encode.Load()) * msPerNS,
			TuplesExamined:  r.tuples.Load(),
			OutTuples:       r.outTuples.Load(),
			Branches:        r.branches.Load(),
			Pruned:          r.pruned.Load(),
			ColumnarSteps:   r.columnar.Load(),
			ResultHits:      r.resultHits.Load(),
			ResultMisses:    r.resultMisses.Load(),
			ResultCoalesced: r.resultCoalesced.Load(),
			ViewHits:        r.viewHits.Load(),
			ViewMisses:      r.viewMisses.Load(),
			RespBytes:       r.respBytes.Load(),
		}
		snap.MeanMS = snap.TotalMS / float64(calls)
		snap.P50MS = quantile(hs, 0.50) * 1e3
		snap.P95MS = quantile(hs, 0.95) * 1e3
		snap.P99MS = quantile(hs, 0.99) * 1e3
		r.mu.Lock()
		snap.DistinctConsts = int64(len(r.consts))
		snap.DistinctConstsOverflow = r.constsOverflow
		r.mu.Unlock()
		out = append(out, snap)
	}
	less := func(a, b RowSnapshot) bool { return a.TotalMS > b.TotalMS }
	switch sortKey {
	case SortCalls:
		less = func(a, b RowSnapshot) bool { return a.Calls > b.Calls }
	case SortTuples:
		less = func(a, b RowSnapshot) bool { return a.TuplesExamined > b.TuplesExamined }
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if less(a, b) != less(b, a) {
			return less(a, b)
		}
		return a.Fingerprint < b.Fingerprint // deterministic tie-break
	})
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return st, out
}

// quantile estimates the q-quantile (seconds) from a histogram snapshot
// by linear interpolation within the containing bucket, Prometheus
// histogram_quantile style. The +Inf bucket clamps to the largest
// finite bound.
func quantile(h trace.HistogramSnapshot, q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	rank := q * float64(h.Count)
	prev := int64(0)
	lower := 0.0
	for i, bound := range h.Bounds {
		c := h.Cumulative[i]
		if float64(c) >= rank {
			in := c - prev
			if in == 0 {
				return bound
			}
			return lower + (bound-lower)*(rank-float64(prev))/float64(in)
		}
		prev, lower = c, bound
	}
	return lower
}
