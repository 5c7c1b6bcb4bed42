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
	"strings"
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
// A System serves concurrent callers: any number of Cite/CiteQuery/CiteAll
// calls may run in parallel with each other (they share the generator's
// singleflight materialization cache), while Commit, DefineView and
// SetPolicyNamed take the write side of the system lock — a Commit therefore
// observes no in-flight head citations and atomically invalidates the
// generator's head caches before the next Cite proceeds.
//
// The CiteContext family threads a context.Context and per-call
// CiteOptions through the whole request path: cancellation reaches the
// plan enumeration, and AtVersion cites any committed snapshot. Versioned
// cites run entirely outside the engine lock — their target is immutable
// and their cache entries are never invalidated — so a Commit neither
// blocks them nor races them (DESIGN.md §7).
type System struct {
	// mu is the engine-wide readers/writer lock: head-targeting
	// Cite-family calls hold it shared, state-changing calls (Commit,
	// DefineView, SetPolicyNamed) hold it exclusively. AtVersion cites do
	// not take it at all.
	mu    sync.RWMutex
	epoch int64 // monotonic version token, bumped by every invalidating change
	cfg   int64 // configuration generation: bumped by SetPolicyNamed/DefineView only, NOT by Commit
	store *fixity.Store
	reg   *citation.Registry
	gen   *citation.Generator

	// Delta tracking for dependency-based cache invalidation (DESIGN.md
	// §3). relEpochs records, per base relation, the epoch of its last
	// known content change: external caches validate a head entry cached
	// at epoch e by checking no relation in its read-set changed after e
	// (DataFresh). relGens records each relation's storage generation
	// counter as of the last cache turnover, so Commit can derive the
	// touched-relation set even for direct Database() mutations that
	// bypassed the journaled API. Both guarded by mu.
	relEpochs map[string]int64
	relGens   map[string]uint64

	// Durability (nil/zero when the system is purely in-memory; see
	// durable.go). wal is the attached commit log: journaled mutations
	// append to it before touching the store, all under the exclusive
	// system lock.
	wal              *durable.Log
	walDir           string
	walOpts          DurableOptions
	readOnly         bool   // recovered with ReadOnly: journaled mutation APIs refuse
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
	sys := &System{
		store:     store,
		reg:       reg,
		gen:       citation.NewGenerator(reg, store.Head()),
		relEpochs: make(map[string]int64),
		relGens:   make(map[string]uint64),
	}
	sys.syncRelGensLocked()
	return sys
}

// syncRelGensLocked records every head relation's current storage
// generation as the "caches are consistent with this" baseline, so the
// next Commit's touched-relation diff starts here. Called with the
// exclusive lock held, or before the system is shared.
func (s *System) syncRelGensLocked() {
	head := s.store.Head()
	for _, name := range head.Schema().Names() {
		s.relGens[name] = head.Relation(name).Generation()
	}
}

// touchedLocked derives the set of relations whose content changed since
// the last cache turnover, by diffing each head relation's storage
// generation against the recorded baseline — this catches journaled
// mutations and direct Database() writes alike — and advances the
// baseline. Called with the exclusive lock held.
func (s *System) touchedLocked() []string {
	head := s.store.Head()
	var touched []string
	for _, name := range head.Schema().Names() {
		if g := head.Relation(name).Generation(); g != s.relGens[name] {
			touched = append(touched, name)
			s.relGens[name] = g
		}
	}
	return touched
}

// DataFresh reports whether none of the given base relations changed
// content after epoch since: a cached head citation computed at epoch
// since whose read-set is rels is still byte-identical to a fresh
// recomputation exactly when DataFresh(rels, since) holds. Relations the
// system has never seen change are always fresh. The server's result
// cache validates surviving entries with this check (DESIGN.md §3, §5).
func (s *System) DataFresh(rels []string, since int64) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, r := range rels {
		if s.relEpochs[r] > since {
			return false
		}
	}
	return true
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
	// probe columns its compiled plans select (and columnarizes read-hot
	// relations), so startup never pays for columns no query probes.
	sys.syncRelGensLocked()
	return sys
}

// Store returns the versioned store.
func (s *System) Store() *fixity.Store { return s.store }

// Registry returns the citation-view registry.
func (s *System) Registry() *citation.Registry { return s.reg }

// Generator returns the citation generator bound to the store head.
func (s *System) Generator() *citation.Generator { return s.gen }

// Database returns the mutable head database.
//
// On a durable system, do NOT mutate it directly: direct writes bypass
// the commit log, and the next Commit refuses to seal contents the log
// cannot reproduce. Use the journaled System.Insert/Delete instead.
func (s *System) Database() *storage.Database { return s.store.Head() }

// Version returns the system's monotonic version token (the epoch). It
// starts at 0 and increments on every state change that can alter the
// outcome of a citation — Commit, DefineView and SetPolicyNamed — atomically
// with the change itself (the bump happens under the exclusive system
// lock, so a Cite that observes epoch e computes against state no older
// than e). The per-call WithParallelism option changes only how work is
// scheduled, never what a citation contains. External result
// caches key head results on this token: an entry cached at epoch e is
// never served once the epoch has moved on, which is the server-cache
// invalidation rule documented in DESIGN.md §3. Results of AtVersion
// cites are keyed on the requested version instead — they are immutable
// and outlive every epoch.
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

// Epochs returns the epoch, the configuration generation and the latest
// committed store version under one shared lock acquisition, so the
// triple is consistent against concurrent state changes. Servers read it
// once before keying a request batch.
func (s *System) Epochs() (epoch, config int64, store fixity.Version) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.epoch, s.cfg, s.store.Latest()
}

// DefineView parses and registers a citation view in one step: viewSrc is
// the view query in datalog syntax; each CitationSpec pairs a citation
// query with its field mapping. On a durable system the definition is
// journaled (in canonical query syntax) after it validates and before it
// registers, so a recovered system wakes up with the same view set.
func (s *System) DefineView(viewSrc string, static format.Record, specs ...CitationSpec) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.readOnly {
		return fmt.Errorf("core: system was opened read-only")
	}
	vq, err := cq.Parse(viewSrc)
	if err != nil {
		return fmt.Errorf("core: view query: %w", err)
	}
	v := &citation.View{Query: vq, Static: static}
	for _, spec := range specs {
		cqy, err := cq.Parse(spec.Query)
		if err != nil {
			return fmt.Errorf("core: citation query: %w", err)
		}
		v.Citations = append(v.Citations, &citation.CitationQuery{
			Query:  cqy,
			Fields: spec.Fields,
		})
	}
	// Journal between the registry's checks and the registration, as the
	// other journaled mutations do: a failed append leaves no view behind
	// that a restart would lose.
	if err := s.reg.Check(v); err != nil {
		return err
	}
	if s.wal != nil {
		//lint:lockscope journaled mutation: the WAL entry and the registry update must commit atomically under the writer lock
		if _, err := s.wal.Append(viewEntry(v), true); err != nil {
			return fmt.Errorf("core: journal: %w", err)
		}
	}
	if err := s.reg.Add(v); err != nil {
		return err // unreachable unless the registry is added to directly, bypassing DefineView
	}
	s.epoch++
	s.cfg++
	// A view definition changes which rewritings exist — semantics, not
	// data — so cached branches, materializations and resolved records flush
	// wholesale: the DefineView/SetPolicyNamed exception to delta invalidation
	// (DESIGN.md §3).
	s.gen.InvalidateCache()
	return nil
}

// CitationSpec pairs a citation query source with its field mapping, for
// DefineView.
type CitationSpec struct {
	Query  string
	Fields []string
}

// Commit snapshots the head as a new immutable version and atomically
// evicts the generator cache entries that depend on a relation this
// commit touched — everything else stays warm: no Cite call is in flight
// while the caches turn over, so a citation is always generated against
// a consistent cache generation. Commit is the synchronization point
// after mutating the head database directly; the touched-relation set is
// derived from per-relation storage generations, so direct writes are
// detected exactly like journaled ones.
//
// On a durable system the commit is journaled — version number,
// UTC timestamp, message, tuple count and the canonical database digest
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
	info, epoch, _, err := s.CommitDelta(message)
	return info, epoch, err
}

// CommitDelta is CommitVersioned returning, in addition, the commit's
// touched-relation set: the base relations whose content changed since
// the previous cache turnover (journaled batches and direct head writes
// alike). Servers feed it to their result cache's purgeTouched so only
// entries reading a touched relation are evicted; a data-less commit
// returns an empty set and keeps every cached citation warm.
func (s *System) CommitDelta(message string) (fixity.VersionInfo, int64, []string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.readOnly {
		return fixity.VersionInfo{}, s.epoch, nil, fmt.Errorf("core: system was opened read-only")
	}
	var info fixity.VersionInfo
	if s.wal == nil {
		info = s.store.Commit(message)
	} else {
		head := s.store.Head()
		// Refuse to seal contents the log cannot reproduce: a direct
		// Database() mutation bypassed the journal, and committing its
		// digest would make the whole directory unrecoverable at the next
		// boot (replay rebuilds different contents and fails the digest
		// check). Failing here is loud and immediate instead.
		if g := head.MutationGen(); g != s.walGen {
			return fixity.VersionInfo{}, s.epoch, nil, fmt.Errorf(
				"core: head was mutated outside the journaled API (direct Database() writes?); durable systems must mutate through System.Insert/Delete")
		}
		info = fixity.VersionInfo{
			Version:   s.store.Latest() + 1,
			Timestamp: time.Now().UTC(),
			Message:   message,
			Tuples:    head.Size(),
		}
		//lint:lockscope journaled mutation: the commit record and the version store must advance atomically under the writer lock
		if _, err := s.wal.Append(durable.Entry{Type: durable.EntryCommit, Commit: commitMeta(info, head)}, true); err != nil {
			return fixity.VersionInfo{}, s.epoch, nil, fmt.Errorf("core: journal: %w", err)
		}
		if err := s.store.RestoreCommit(info); err != nil {
			return fixity.VersionInfo{}, s.epoch, nil, err
		}
	}
	// Delta-aware invalidation: evict only the generator cache entries
	// that depend on a relation this commit touched (detected by
	// generation diff, so direct head writes count), and record each
	// touched relation's last-change epoch for external cache validation.
	touched := s.touchedLocked()
	s.epoch++
	for _, r := range touched {
		s.relEpochs[r] = s.epoch
	}
	s.gen.InvalidateTouched(touched)
	if s.wal != nil && s.walOpts.CheckpointEvery > 0 {
		s.commitsSinceCkpt++
		if s.commitsSinceCkpt >= s.walOpts.CheckpointEvery {
			if err := s.checkpointLocked(); err != nil {
				return info, s.epoch, touched, fmt.Errorf("core: checkpoint after commit %d: %w", info.Version, err)
			}
		}
	}
	return info, s.epoch, touched, nil
}

// Citation is the complete outcome of citing a query: the structural
// result (per-tuple expressions and records), the aggregated record, and
// the fixity pin when the store has committed versions.
type Citation struct {
	Result *citation.Result
	Pin    *fixity.PinnedCitation
}

// Cite parses querySrc, generates its citation against the head database,
// and — when at least one version has been committed — attaches a fixity
// pin computed against the latest version. Cite holds the system lock
// shared, so any number of citations are generated concurrently. It is
// CiteContext with a background context and no options.
func (s *System) Cite(querySrc string) (*Citation, error) {
	//lint:detach context-free public API: Cite is the no-cancellation wrapper over CiteContext
	return s.CiteContext(context.Background(), querySrc)
}

// CiteContext parses querySrc and generates its citation under the
// per-call options:
//
//   - AtVersion(v) cites against committed snapshot v instead of the head
//     (ErrUnknownVersion if v was never committed); the pin executes at v.
//   - WithPolicy / WithRewriteMethod / WithParallelism override the
//     system defaults for this call only.
//   - WithoutFixityPin skips the pin re-execution.
//
// Cancellation is cooperative and threads down to the plan enumeration:
// when ctx is canceled or its deadline passes, the call aborts promptly
// and returns ctx.Err(). A malformed query reports an error satisfying
// errors.Is(err, cq.ErrBadQuery).
func (s *System) CiteContext(ctx context.Context, querySrc string, opts ...CiteOption) (*Citation, error) {
	_, sp := trace.StartSpan(ctx, "parse")
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
// Head-targeting calls hold the system lock shared, exactly like Cite.
// AtVersion calls do not take the engine lock at all: the target snapshot
// is immutable, the registry serializes internally, and the generator's
// versioned cache entries are never invalidated — so a concurrent Commit
// neither blocks a time-travel cite nor evicts its cache entries.
func (s *System) CiteQueryContext(ctx context.Context, q *cq.Query, opts ...CiteOption) (*Citation, error) {
	cfg := resolveOptions(opts)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	req := citation.Request{
		Policy:      cfg.policy,
		Method:      cfg.method,
		Parallelism: cfg.parallelism,
	}

	if cfg.version > 0 {
		// Time-travel cite: resolve the immutable snapshot and run outside
		// the engine lock (see the method comment).
		db, err := s.store.At(cfg.version)
		if err != nil {
			return nil, err
		}
		req.DB = db
		req.Version = int(cfg.version)
		res, err := s.gen.CiteContext(ctx, q, req)
		if err != nil {
			return nil, err
		}
		out := &Citation{Result: res}
		if !cfg.noPin {
			pinCtx, pinSpan := trace.StartSpan(ctx, "fixity")
			pinSpan.Set("version", int(cfg.version))
			_, pin, err := s.store.ExecuteContext(pinCtx, q, cfg.version)
			pinSpan.End()
			if err != nil {
				return nil, err
			}
			out.Pin = &pin
		}
		return out, nil
	}

	s.mu.RLock()
	defer s.mu.RUnlock()
	res, err := s.gen.CiteContext(ctx, q, req)
	if err != nil {
		return nil, err
	}
	out := &Citation{Result: res}
	if !cfg.noPin {
		if v := s.store.Latest(); v > 0 {
			pinCtx, pinSpan := trace.StartSpan(ctx, "fixity")
			pinSpan.Set("version", int(v))
			_, pin, err := s.store.ExecuteContext(pinCtx, q, v)
			pinSpan.End()
			if err != nil {
				return nil, err
			}
			out.Pin = &pin
		}
	}
	return out, nil
}

// CiteAll generates citations for a batch of queries with bounded
// parallelism (GOMAXPROCS workers; CiteAllContext takes WithParallelism).
// Results are positional: out[i] is the citation of queries[i]. The
// queries share one cache generation, so a view referenced by many batch
// members is materialized once (singleflight) and its citation records
// are resolved once. On error the first failure in query order is
// returned along with the partial results (failed or unprocessed
// positions are nil).
//
// Each query acquires the system lock independently: a batch does not
// starve Commit, and a Commit that lands mid-batch is observed by the
// remaining queries' fixity pins.
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
	_, sp := trace.StartSpan(ctx, "parse")
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
// the fixity pin when present.
func (c *Citation) Text() string {
	var b strings.Builder
	b.WriteString(format.Text(c.Result.Record))
	if c.Pin != nil {
		b.WriteString(" [")
		b.WriteString(c.Pin.String())
		b.WriteString("]")
	}
	return b.String()
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
		Expr:      c.Result.Expr,
		Record:    c.Result.Record,
	}
	ref = store.Put(ext)
	return ref, citestore.FormatCompact(ext, ref)
}
