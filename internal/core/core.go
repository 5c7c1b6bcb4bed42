// Package core wires the data-citation subsystems — versioned storage,
// citation views, rewriting-based citation generation, policies, fixity
// pinning and formatting — into a single System, the deployment unit a
// database owner configures (paper §3, "defining citations": the owner
// specifies views, citation queries and policies "and the system should
// take care of the annotation tracking").
package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/citation"
	"repro/internal/citestore"
	"repro/internal/cq"
	"repro/internal/durable"
	"repro/internal/fixity"
	"repro/internal/format"
	"repro/internal/schema"
	"repro/internal/storage"
	"repro/internal/trace"
)

// System is a citation-enabled database: a versioned store plus a view
// registry, a combination policy, and a citation generator bound to the
// store's head.
//
// A System serves concurrent callers. Every cite reads a frozen
// snapshot: a head cite the head's (citation.Generator.Head, taken under
// the shared system lock together with the latest version it pins
// against), an AtVersion cite the committed version's. Generation and
// pinning then run with no lock, so any number of cites run in parallel
// (sharing the generator's singleflight caches, keyed by the content
// they read), and Insert, Delete, Commit, DefineView and SetPolicyNamed —
// which take the write side of the lock — never wait for a cite in
// flight (DESIGN.md §3, §7).
//
// The CiteContext family threads a context.Context and per-call
// CiteOptions through the whole request path: cancellation reaches the
// plan enumeration, and AtVersion cites any committed snapshot.
type System struct {
	// mu is the engine-wide readers/writer lock: head cites hold it
	// shared only while taking their snapshot, state-changing calls
	// (Insert, Delete, Commit, DefineView, SetPolicyNamed) hold it
	// exclusively. AtVersion cites do not take it at all.
	mu    sync.RWMutex
	epoch int64 // monotonic version token, bumped by every state change
	cfg   int64 // configuration generation: bumped by SetPolicyNamed/DefineView only, NOT by Commit
	store *fixity.Store
	reg   *citation.Registry
	gen   *citation.Generator
	views []durable.Entry // the define-view entries applied, which checkpoints write again

	// Durability (nil/zero when the system is purely in-memory; see
	// durable.go). wal is the attached commit log: every write appends
	// to it before it applies, under the exclusive system lock.
	wal              *durable.Log
	walDir           string
	walOpts          DurableOptions
	readOnly         bool   // recovered with ReadOnly: every write refuses
	walGen           uint64 // head mutation generation as of the last journaled state
	polName          string // last named default policy ("" = unnamed/default)
	commitsSinceCkpt int
	ckptCount        int64
	recoveryDur      time.Duration
	recoveredVer     fixity.Version
}

// NewSystem creates a citation-enabled database over the schema.
func NewSystem(s *schema.Schema) *System {
	store := fixity.NewStore(s)
	reg := citation.NewRegistry(s)
	return &System{
		store: store,
		reg:   reg,
		gen:   citation.NewGenerator(reg, store.Head()),
	}
}

// NewSystemFromDatabase wraps an already-loaded database (e.g. from the
// synthetic generators). The head loads each relation's tuples in one
// bulk call that shares them with db instead of copying them: tuples are
// never mutated in place, and the head keeps row arrays of its own, so
// writes to db or to the system never reach the other. Loading costs
// O(relations) allocations, not O(tuples).
func NewSystemFromDatabase(db *storage.Database) *System {
	sys := NewSystem(db.Schema())
	head := sys.store.Head()
	for _, name := range db.Schema().Names() {
		if _, err := head.Relation(name).InsertOwned(db.Relation(name).Tuples()); err != nil {
			panic(fmt.Sprintf("core: loading %s: %v", name, err))
		}
	}
	// No eager index build: the planner calls EnsureIndex for exactly the
	// probe columns its compiled plans select over the mutable head, and
	// cites read snapshots, which build columnar blocks on first read, so
	// startup never pays for columns no query probes.
	return sys
}

// Store returns the versioned store.
func (s *System) Store() *fixity.Store { return s.store }

// Registry returns the citation-view registry. A view added to it
// directly is neither journaled nor checkpointed, just as Database()
// writes are not: a durable system defines views through DefineView.
func (s *System) Registry() *citation.Registry { return s.reg }

// Generator returns the citation generator bound to the store head.
func (s *System) Generator() *citation.Generator { return s.gen }

// Database returns the mutable head database. The next head cite after a
// direct write reads it, as it reads a journaled one; writes must not
// race cites, as System.Insert/Delete cannot.
//
// On a durable system, do NOT mutate it directly: direct writes bypass
// the commit log, and the next Commit refuses to seal contents the log
// cannot reproduce. Use the journaled System.Insert/Delete instead.
func (s *System) Database() *storage.Database { return s.store.Head() }

// Version returns the system's monotonic version token (the epoch). It
// starts at 0 and increments on every state change that can alter the
// outcome of a citation — Insert, Delete, Commit, DefineView and
// SetPolicyNamed — atomically with the change itself (the bump happens
// under the exclusive system lock, so a cite whose snapshot was taken
// at epoch e reads state no older than e). The per-call WithParallelism
// option changes only how many batch members cite at once, never what a
// citation contains. Replies carry it; caches do not key on it, since the
// content a citation read is what decides whether it is still current
// (DESIGN.md §3).
func (s *System) Version() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.epoch
}

// Versions returns the epoch together with the latest committed store
// version, read under one shared lock acquisition so the pair is
// consistent: a concurrent Commit (which bumps both exclusively) is
// either fully visible or not at all. Servers stamp response envelopes
// with this pair.
func (s *System) Versions() (epoch int64, store fixity.Version) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.epoch, s.store.Latest()
}

// ConfigVersion returns the configuration generation: a monotonic token
// bumped by SetPolicyNamed and DefineView — the changes that can alter what a
// citation of an *already committed* version contains — and deliberately
// NOT by Commit, which cannot. External caches of AtVersion results key
// on (ConfigVersion, version, query): entries survive every commit (the
// snapshot is immutable) but are orphaned the moment the default policy
// or the view set changes.
func (s *System) ConfigVersion() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.cfg
}

// Snapshot returns the frozen database a cite of version v reads — the
// head's snapshot (citation.Generator.Head) for v = 0, else committed
// version v (ErrUnknownVersion if it was never committed) — with the
// epoch, the configuration generation and the latest committed version,
// all under one shared lock acquisition, so the four are consistent
// against concurrent state changes. Servers read it once before keying
// a request batch, and validate cached citations against db.
func (s *System) Snapshot(v fixity.Version) (db *storage.Database, epoch, config int64, latest fixity.Version, err error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if v == 0 {
		db = s.gen.Head()
	} else {
		db, err = s.store.At(v)
	}
	return db, s.epoch, s.cfg, s.store.Latest(), err
}

// DefineView parses and registers a citation view in one step: viewSrc is
// the view query in datalog syntax; each CitationSpec pairs a citation
// query with its field mapping. On a durable system the definition is
// journaled, in the text the caller wrote, after it validates and before
// it registers, so a recovered system wakes up with the same view set.
func (s *System) DefineView(viewSrc string, static format.Record, specs ...CitationSpec) error {
	e := durable.Entry{Type: durable.EntryDefineView, ViewSrc: viewSrc, Static: staticPairs(static)}
	for _, spec := range specs {
		e.Cites = append(e.Cites, durable.ViewCite(spec))
	}
	_, _, err := s.write(&e, true)
	return err
}

// CitationSpec pairs a citation query source with its field mapping, for
// DefineView.
type CitationSpec struct {
	Query  string
	Fields []string
}

// Commit snapshots the head as a new immutable version. No cache turns
// over: the version shares every relation whose content it has in
// common with the head snapshot cites read, and cache entries are keyed
// by the content they read, so a citation that reads nothing written
// since it was computed stays warm.
//
// A commit stamps the store clock's time (fixity.Store.SetClock) in UTC.
// On a durable system the commit is journaled — version number,
// timestamp, message, tuple count and the canonical database digest
// reach stable storage (every fsync policy syncs at commit boundaries
// except interval mode, which syncs on its timer) before the version is
// created — and a journaling failure panics; callers that must handle
// disk errors gracefully use CommitVersioned.
func (s *System) Commit(message string) fixity.VersionInfo {
	info, _, err := s.CommitVersioned(message)
	if err != nil {
		panic(fmt.Sprintf("core: commit: %v", err))
	}
	return info
}

// CommitVersioned is Commit returning, in addition, the epoch observed
// atomically with the commit — servers stamp commit responses with the
// pair, which a later racing state change cannot skew — and any
// journaling error. Errors are only possible on durable systems: the
// in-memory commit itself cannot fail, but the write-ahead append (or an
// automatic checkpoint configured with CheckpointEvery) can. When the
// returned error wraps a checkpoint failure the commit itself has
// already landed durably; the error is surfaced so operators see the
// disk problem before the log grows without bound.
func (s *System) CommitVersioned(message string) (fixity.VersionInfo, int64, error) {
	e := durable.Entry{Type: durable.EntryCommit, Commit: durable.CommitMeta{Message: message}}
	_, epoch, err := s.write(&e, true)
	if err != nil {
		return fixity.VersionInfo{}, epoch, err
	}
	info := versionInfo(e.Commit)
	if err := s.checkpointEvery(); err != nil {
		return info, epoch, fmt.Errorf("core: checkpoint after commit %d: %w", info.Version, err)
	}
	return info, epoch, nil
}

// Citation is the complete outcome of citing a query: the structural
// result (per-tuple expressions and records), the aggregated record, and
// the fixity pin when the store has committed versions.
type Citation struct {
	Result *citation.Result
	Pin    *fixity.PinnedCitation
}

// Cite parses querySrc, generates its citation against the head's
// snapshot, and — when at least one version has been committed — attaches
// a fixity pin computed against the latest version as of that snapshot.
// Cite holds the system lock shared only while it takes the snapshot, so
// any number of citations are generated concurrently and writes never
// wait for them. It is CiteContext with a background context and no
// options.
func (s *System) Cite(querySrc string) (*Citation, error) {
	//lint:detach context-free public API: Cite is the no-cancellation wrapper over CiteContext
	return s.CiteContext(context.Background(), querySrc)
}

// CiteContext parses querySrc and generates its citation under the
// per-call options:
//
//   - AtVersion(v) cites against committed snapshot v instead of the head
//     (ErrUnknownVersion if v was never committed); the pin executes at v.
//   - WithPolicy / WithRewriteMethod override the system defaults for
//     this call only. The cite runs on the caller's goroutine, so
//     WithParallelism, which bounds a batch's fan-out, changes nothing
//     here.
//   - WithoutFixityPin skips the pin re-execution.
//
// Cancellation is cooperative and threads down to the plan enumeration:
// when ctx is canceled or its deadline passes, the call aborts promptly
// and returns ctx.Err(). A malformed query reports an error satisfying
// errors.Is(err, cq.ErrBadQuery).
func (s *System) CiteContext(ctx context.Context, querySrc string, opts ...CiteOption) (*Citation, error) {
	sp := trace.SpanFromContext(ctx).StartChild("parse")
	q, err := cq.Parse(querySrc)
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("core: query: %w", err)
	}
	return s.CiteQueryContext(ctx, q, opts...)
}

// CiteQuery is Cite for an already-parsed query.
func (s *System) CiteQuery(q *cq.Query) (*Citation, error) {
	//lint:detach context-free public API: CiteQuery is the no-cancellation wrapper over CiteQueryContext
	return s.CiteQueryContext(context.Background(), q)
}

// CiteQueryContext is CiteContext for an already-parsed query.
//
// A head cite holds the system lock shared only to take the head's
// snapshot and the latest committed version together, then generates
// and pins with no lock, so the pin pairs with the snapshot the cite
// read. AtVersion calls do not take the engine lock at all: the target
// snapshot is immutable and the registry serializes internally.
func (s *System) CiteQueryContext(ctx context.Context, q *cq.Query, opts ...CiteOption) (*Citation, error) {
	cfg := resolveOptions(opts)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	req := citation.Request{Policy: cfg.policy, Method: cfg.method}
	pinAt := cfg.version
	if cfg.version > 0 {
		db, err := s.store.At(cfg.version)
		if err != nil {
			return nil, err
		}
		req.DB = db
	} else {
		s.mu.RLock()
		req.DB, pinAt = s.gen.Head(), s.store.Latest()
		s.mu.RUnlock()
	}
	res, err := s.gen.CiteContext(ctx, q, req)
	if err != nil {
		return nil, err
	}
	out := &Citation{Result: res}
	if !cfg.noPin && pinAt > 0 {
		pin, err := s.pin(ctx, res, pinAt)
		if err != nil {
			return nil, err
		}
		out.Pin = &pin
	}
	return out, nil
}

// pin re-executes the query res cites at committed version v and pins
// its answer: the generator evaluates the query over v's snapshot with
// the prepared plan of its shape (citation.Generator.Answer), and the
// store builds the pin from that answer (fixity.Store.Pin), so it equals
// Store.Execute's. The fixity span says whether the plan cache held the
// plan; the lookup opens no plan span of its own, so the plan spans stay
// the rewritings' and the citation queries'.
func (s *System) pin(ctx context.Context, res *citation.Result, v fixity.Version) (fixity.PinnedCitation, error) {
	pinCtx, sp := trace.StartSpan(ctx, "fixity")
	defer sp.End()
	sp.Set("version", int(v))
	db, err := s.store.At(v)
	if err != nil {
		return fixity.PinnedCitation{}, err
	}
	tuples, hit, err := s.gen.Answer(pinCtx, res, db)
	if hit {
		sp.Set("cache", "hit")
	} else {
		sp.Set("cache", "miss")
	}
	if err != nil {
		return fixity.PinnedCitation{}, err
	}
	return s.store.Pin(res.Query, v, tuples)
}

// CiteAll generates citations for a batch of queries, citing up to
// GOMAXPROCS members at once (CiteAllContext takes WithParallelism), each
// on one goroutine. Results are positional: out[i] is the citation of
// queries[i]. The queries share the generator's caches, so a view
// referenced by many batch members is materialized once (singleflight)
// and its citation records are resolved once. On error the first failure
// in query order is returned along with the partial results (failed or
// unprocessed positions are nil).
//
// Each query takes its own head snapshot: a batch does not starve
// Commit, and a Commit that lands mid-batch is observed by the remaining
// queries' snapshots and fixity pins.
func (s *System) CiteAll(queries []string) ([]*Citation, error) {
	//lint:detach context-free public API: CiteAll is the no-cancellation wrapper over CiteAllContext
	return s.CiteAllContext(context.Background(), queries)
}

// CiteAllContext is CiteAll with a context and per-call options applied
// to every batch member. Canceling ctx aborts in-flight members and
// skips unstarted ones; the first failure in query order is returned.
func (s *System) CiteAllContext(ctx context.Context, queries []string, opts ...CiteOption) ([]*Citation, error) {
	qs := make([]*cq.Query, len(queries))
	for i, src := range queries {
		q, err := cq.Parse(src)
		if err != nil {
			return make([]*Citation, len(queries)), fmt.Errorf("core: query %d: %w", i, err)
		}
		qs[i] = q
	}
	out := make([]*Citation, len(queries))
	errs := make([]error, len(queries))
	s.citeBatch(ctx, qs, out, errs, opts)
	for i, err := range errs {
		if err != nil {
			out[i] = nil
			return out, fmt.Errorf("core: query %d: %w", i, err)
		}
	}
	return out, nil
}

// CiteEach is CiteAll with per-query error reporting: every position gets
// either a citation (out[i]) or its own error (errs[i]) — a parse failure
// or citation failure at one position does not discard the rest of the
// batch. This is the entry point network servers use, where one client's
// malformed query must not fail its neighbors in a batch.
func (s *System) CiteEach(queries []string) (out []*Citation, errs []error) {
	//lint:detach context-free public API: CiteEach is the no-cancellation wrapper over CiteEachContext
	return s.CiteEachContext(context.Background(), queries)
}

// CiteEachContext is CiteEach with a context and per-call options applied
// to every batch member. A canceled ctx records ctx.Err() for every
// member not yet completed.
func (s *System) CiteEachContext(ctx context.Context, queries []string, opts ...CiteOption) (out []*Citation, errs []error) {
	qs := make([]*cq.Query, len(queries))
	out = make([]*Citation, len(queries))
	errs = make([]error, len(queries))
	sp := trace.SpanFromContext(ctx).StartChild("parse")
	for i, src := range queries {
		q, err := cq.Parse(src)
		if err != nil {
			errs[i] = fmt.Errorf("core: query: %w", err)
			continue
		}
		qs[i] = q
	}
	sp.Add("queries", int64(len(queries)))
	sp.End()
	s.citeBatch(ctx, qs, out, errs, opts)
	return out, errs
}

// citeBatch cites every non-nil query over a worker pool bounded by the
// per-call parallelism (default GOMAXPROCS), writing results and errors
// positionally. Positions with a nil query (parse failures recorded by
// the caller) are skipped.
func (s *System) citeBatch(ctx context.Context, qs []*cq.Query, out []*Citation, errs []error, opts []CiteOption) {
	workers := resolveOptions(opts).parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(qs) {
		workers = len(qs)
	}
	if workers <= 1 {
		for i, q := range qs {
			if q != nil {
				out[i], errs[i] = s.CiteQueryContext(ctx, q, opts...)
			}
		}
		return
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				out[i], errs[i] = s.CiteQueryContext(ctx, qs[i], opts...)
			}
		}()
	}
	for i := range qs {
		if qs[i] != nil {
			next <- i
		}
	}
	close(next)
	wg.Wait()
}

// Text renders the aggregated citation as human-readable text, including
// the fixity pin when present, into one buffer.
func (c *Citation) Text() string {
	var b [512]byte
	out := format.AppendText(b[:0], c.Result.Record)
	if c.Pin != nil {
		out = append(c.Pin.AppendString(append(out, " ["...)), ']')
	}
	return string(out)
}

// BibTeX renders the aggregated citation as a BibTeX entry.
func (c *Citation) BibTeX(key string) string {
	rec := c.Result.Record
	if c.Pin != nil {
		rec = rec.Clone()
		rec.Add(format.FieldNote, c.Pin.String())
	}
	return format.BibTeX(rec, key)
}

// RIS renders the aggregated citation in RIS format.
func (c *Citation) RIS() string {
	rec := c.Result.Record
	if c.Pin != nil {
		rec = rec.Clone()
		rec.Add(format.FieldNote, c.Pin.String())
	}
	return format.RIS(rec)
}

// XML renders the aggregated citation as XML.
func (c *Citation) XML() (string, error) {
	rec := c.Result.Record
	if c.Pin != nil {
		rec = rec.Clone()
		rec.Add(format.FieldNote, c.Pin.String())
	}
	return format.XML(rec)
}

// JSON renders the aggregated citation as JSON.
func (c *Citation) JSON() (string, error) {
	rec := c.Result.Record
	if c.Pin != nil {
		rec = rec.Clone()
		rec.Add(format.FieldNote, c.Pin.String())
	}
	return format.JSON(rec)
}

// Archive deposits the full extended citation (query text, formal
// expression, resolved record) into the content-addressed store and
// returns the compact reference plus a bibliography-sized rendering — the
// paper's §3 "size of citations" proposal: the inline citation becomes "a
// reference to an extended citation which is a searchable object".
func (c *Citation) Archive(store *citestore.Store) (ref, compact string) {
	ext := citestore.Extended{
		QueryText: c.Result.Query.String(),
		Expr:      c.Result.Expr(),
		Record:    c.Result.Record,
	}
	ref = store.Put(ext)
	return ref, citestore.FormatCompact(ext, ref)
}
