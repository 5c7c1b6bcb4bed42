package datacitation

import (
	"repro/internal/citation"
	"repro/internal/citeexpr"
	"repro/internal/citestore"
	"repro/internal/core"
	"repro/internal/cq"
	"repro/internal/durable"
	"repro/internal/eval"
	"repro/internal/fixity"
	"repro/internal/format"
	"repro/internal/policy"
	"repro/internal/rewrite"
	"repro/internal/schema"
	"repro/internal/server"
	"repro/internal/spec"
	"repro/internal/storage"
	"repro/internal/value"
)

// System is a citation-enabled database: versioned storage, a citation
// view registry, and a rewriting-based citation generator.
//
// A System is safe for concurrent use once its views are defined: Cite,
// CiteQuery and the batched CiteAll/CiteEach run in parallel against
// shared singleflight caches, while Commit serializes against in-flight
// citations and atomically invalidates the caches. System.CiteAll cites a
// whole batch of queries with bounded parallelism; CiteEach is the same
// batch with per-query errors.
//
// The context-first request API is the CiteContext family
// (CiteContext/CiteQueryContext/CiteAllContext/CiteEachContext): each
// call takes a context.Context — cancellation propagates cooperatively
// down to the plan enumeration and returns ctx.Err() promptly — plus
// per-call CiteOptions. Precedence is per-call over default: AtVersion,
// WithPolicy, WithRewriteMethod, WithParallelism and WithoutFixityPin
// override, for one call only, the system-wide defaults (the
// SetPolicyNamed policy, GOMAXPROCS batch workers; calls without options
// behave exactly as before). A single cite runs on its caller's
// goroutine; WithParallelism bounds only a batch's fan-out.
//
// Every cite reads a frozen snapshot — the head's, reused until the
// head's content changes, or a committed version's with AtVersion — and
// holds the engine lock at most while taking it, so writes never wait
// for cites in flight. A cached result (Citation.Result.Reads and .Origin)
// is current exactly while a snapshot holds the content its read-set had.
// System.Version is the monotonic epoch replies carry: it advances with
// every Insert, Delete, Commit, DefineView and SetPolicyNamed and
// deliberately NOT with WithParallelism (it bounds only how many batch
// members cite at once). See DESIGN.md §3 for the locking and
// invalidation rules and §7 for the request-option and versioned-read
// design.
type System = core.System

// CiteOption is a per-call request parameter for the CiteContext family;
// the options below construct them.
type CiteOption = core.CiteOption

// Per-call request options, overriding the system defaults for one call:
//
//   - AtVersion(v) — time-travel: cite against committed snapshot v; the
//     citation (records and pin alike) is byte-identical to the one that
//     was generated while v was the head. Unknown versions report
//     ErrUnknownVersion.
//   - WithPolicy(p) — combination policy for this call (overrides the
//     SetPolicyNamed default).
//   - WithRewriteMethod(m) — rewriting algorithm for this call.
//   - WithParallelism(n) — how many members of a CiteAll/CiteEach batch
//     cite at once (default GOMAXPROCS; 1 cites them one after another).
//   - WithoutFixityPin() — skip the pin re-execution.
var (
	// AtVersion cites against a committed snapshot instead of the head.
	AtVersion = core.AtVersion
	// WithPolicy overrides the combination policy per call.
	WithPolicy = core.WithPolicy
	// WithRewriteMethod overrides the rewriting algorithm per call.
	WithRewriteMethod = core.WithRewriteMethod
	// WithParallelism bounds a batch's fan-out per call.
	WithParallelism = core.WithParallelism
	// WithoutFixityPin skips the fixity pin per call.
	WithoutFixityPin = core.WithoutFixityPin
)

// CitationSpec pairs a citation query with its field mapping when defining
// a view through System.DefineView.
type CitationSpec = core.CitationSpec

// Citation is the outcome of citing a query: structural result plus
// optional fixity pin.
type Citation = core.Citation

// NewSystem creates a citation-enabled database over the schema.
func NewSystem(s *Schema) *System { return core.NewSystem(s) }

// NewSystemFromDatabase wraps an already-loaded database. The system
// shares db's immutable tuples rather than copying them; writes to db or
// to the system never reach the other.
func NewSystemFromDatabase(db *Database) *System { return core.NewSystemFromDatabase(db) }

// Schema describes a database schema; Relation describes one relation.
type (
	// Schema is a named collection of relation schemas.
	Schema = schema.Schema
	// RelationSchema is the schema of a single relation.
	RelationSchema = schema.Relation
	// Attribute is a named, typed column.
	Attribute = schema.Attribute
)

// NewSchema creates an empty schema.
func NewSchema() *Schema { return schema.New() }

// NewRelationSchema builds a relation schema with optional key columns.
func NewRelationSchema(name string, attrs []Attribute, keyCols ...string) (*RelationSchema, error) {
	return schema.NewRelation(name, attrs, keyCols...)
}

// Database and Tuple are the storage primitives.
type (
	// Database binds relation instances to a schema.
	Database = storage.Database
	// Relation is one relation instance.
	Relation = storage.Relation
	// Tuple is an ordered list of values.
	Tuple = storage.Tuple
)

// NewDatabase creates an empty database for the schema.
func NewDatabase(s *Schema) *Database { return storage.NewDatabase(s) }

// Value is a typed scalar; the Kind* constants enumerate its kinds.
type Value = value.Value

// Value kinds for schema attributes.
const (
	KindString = value.KindString
	KindInt    = value.KindInt
	KindFloat  = value.KindFloat
	KindTime   = value.KindTime
)

// String, Int, Float and Time construct values.
var (
	// String constructs a string value.
	String = value.String
	// Int constructs an integer value.
	Int = value.Int
	// Float constructs a floating-point value.
	Float = value.Float
	// Time constructs a time value.
	Time = value.Time
)

// Query is a conjunctive query; ParseQuery parses the datalog syntax.
type Query = cq.Query

// ParseQuery parses a conjunctive query, e.g.
// "lambda FID. V1(FID, FName, Desc) :- Family(FID, FName, Desc)".
func ParseQuery(src string) (*Query, error) { return cq.Parse(src) }

// MustParseQuery is ParseQuery but panics on error.
func MustParseQuery(src string) *Query { return cq.MustParse(src) }

// View, Registry and Generator expose the citation core for advanced use;
// most callers go through System.
type (
	// View is a citation view (view query + citation queries + function).
	View = citation.View
	// CitationQuery pulls citation snippets for a view.
	CitationQuery = citation.CitationQuery
	// Registry holds the declared citation views.
	Registry = citation.Registry
	// Generator constructs citations for queries.
	Generator = citation.Generator
	// Result is the citation of a query answer.
	Result = citation.Result
	// TupleCitation is the citation of one answer tuple.
	TupleCitation = citation.TupleCitation
)

// Typed sentinel errors, distinguishable with errors.Is / errors.As. The
// serving layer maps them onto HTTP statuses (400 / 404 / 422) instead of
// answering blanket server errors.
var (
	// ErrNoRewriting is returned when no rewriting over the registered
	// views exists and no citation can be constructed.
	ErrNoRewriting = citation.ErrNoRewriting
	// ErrBadQuery wraps every query parse failure.
	ErrBadQuery = cq.ErrBadQuery
	// ErrUnknownVersion is returned when AtVersion names a version that
	// was never committed.
	ErrUnknownVersion = fixity.ErrUnknownVersion
	// ErrUnknownRelation is returned when a query references a relation
	// the database does not define.
	ErrUnknownRelation = eval.ErrUnknownRelation
)

// Record is a structured citation record; NewRecord builds one from
// field/value pairs.
type Record = format.Record

// NewRecord builds a record from alternating field, value pairs.
func NewRecord(pairs ...string) Record { return format.NewRecord(pairs...) }

// Formatting helpers re-exported from internal/format.
var (
	// FormatText renders a record as human-readable text.
	FormatText = format.Text
	// FormatBibTeX renders a record as a BibTeX entry.
	FormatBibTeX = format.BibTeX
	// FormatRIS renders a record in RIS format.
	FormatRIS = format.RIS
	// FormatXML renders a record as XML.
	FormatXML = format.XML
	// FormatJSON renders a record as JSON.
	FormatJSON = format.JSON
)

// Standard citation field names.
const (
	FieldAuthor     = format.FieldAuthor
	FieldTitle      = format.FieldTitle
	FieldDatabase   = format.FieldDatabase
	FieldIdentifier = format.FieldIdentifier
	FieldVersion    = format.FieldVersion
	FieldDate       = format.FieldDate
	FieldURL        = format.FieldURL
	FieldNote       = format.FieldNote
)

// Policy fixes the interpretation of the four abstract operators.
type Policy = policy.Policy

// DefaultPolicy returns the paper's closing-example policy: union for `·`,
// `+` and Agg; minimum estimated size for `+R`.
func DefaultPolicy() Policy { return policy.Default() }

// Policy building blocks.
const (
	// CombineUnion merges records field-wise.
	CombineUnion = policy.Union
	// CombineJoin keeps only common field/value pairs.
	CombineJoin = policy.Join
	// CombineFirst keeps the first operand.
	CombineFirst = policy.First
	// SelectMinSize picks the rewriting with the fewest citation atoms.
	SelectMinSize = policy.MinSize
	// SelectAllBranches combines all rewritings instead of selecting.
	SelectAllBranches = policy.AllBranches
	// SelectMaxCoverage picks the rewriting with the most citation atoms.
	SelectMaxCoverage = policy.MaxCoverage
)

// Expr is a citation expression (the formal `·`/`+`/`+R`/Agg tree). The
// engine keeps citations in flat form; Result.Expr and
// TupleCitation.Expr/Selected build these trees from it on each call.
type Expr = citeexpr.Expr

// ExprSize counts the distinct citation atoms of an expression — the
// paper's estimated citation size.
func ExprSize(e Expr) int { return citeexpr.Size(e) }

// Durability: a System can journal every mutation to a segmented,
// checksummed write-ahead commit log and recover the exact fixity
// version history — same version numbers, same snapshot contents, same
// digests — after a crash (DESIGN.md §8).
//
//	sys, _ := datacitation.LoadSpec(specText)
//	_ = sys.EnableDurability(dir, datacitation.DurableOptions{})
//	sys.Commit("v1")                      // journaled
//	sys.Insert("R", tuples)               // journaled batch mutation
//	...
//	sys, _ = datacitation.OpenSystem(dir, datacitation.DurableOptions{})
type (
	// DurableOptions configures the commit log and checkpointing.
	DurableOptions = core.DurableOptions
	// DurabilityStats is the durability gauge set (/metrics).
	DurabilityStats = core.DurabilityStats
	// FsyncPolicy selects when log appends reach stable storage.
	FsyncPolicy = durable.FsyncPolicy
)

// The write-ahead log fsync policies.
const (
	// FsyncAlways syncs after every log append.
	FsyncAlways = durable.FsyncAlways
	// FsyncOnCommit syncs at commit and configuration entries (default).
	FsyncOnCommit = durable.FsyncOnCommit
	// FsyncInterval syncs on a background timer.
	FsyncInterval = durable.FsyncInterval
)

// ParseFsyncPolicy parses "always", "on-commit" or "interval".
var ParseFsyncPolicy = durable.ParseFsyncPolicy

// ErrCorrupt marks log or checkpoint bytes that fail structural
// validation, or hold an entry that does not apply, during recovery.
// Classify with errors.Is.
var ErrCorrupt = durable.ErrCorrupt

// OpenSystem recovers a System from a durable data directory and (unless
// opts.ReadOnly) keeps journaling to it. See core.Open.
func OpenSystem(dir string, opts DurableOptions) (*System, error) { return core.Open(dir, opts) }

// PolicyByName resolves the named combination policies ("minsize",
// "maxcoverage", "all") used by the command-line tools and the commit
// log's SetPolicyNamed entries.
var PolicyByName = core.PolicyByName

// Fixity types for version-pinned citations.
type (
	// VersionedStore is a database with immutable committed versions.
	VersionedStore = fixity.Store
	// Version identifies a committed snapshot.
	Version = fixity.Version
	// PinnedCitation fixes a query result in time.
	PinnedCitation = fixity.PinnedCitation
)

// CiteStore is a content-addressed, searchable store of extended
// citations — the §3 "size of citations" mechanism. Citation.Archive
// deposits into it.
type CiteStore = citestore.Store

// NewCiteStore creates an empty extended-citation store.
func NewCiteStore() *CiteStore { return citestore.NewStore() }

// ExtendedCitation is a stored extended citation.
type ExtendedCitation = citestore.Extended

// Server serves a System over HTTP with a version-keyed coalescing
// result cache — the network serving layer cmd/citeserved runs (see
// internal/server and DESIGN.md §5). Embed it under your own mux with
// Server.Handler, or run it standalone with ListenAndServe + Shutdown.
type Server = server.Server

// ServerOptions configures a Server; the zero value uses the defaults
// (1024-entry cache, 30s request deadline, 4×GOMAXPROCS admission).
type ServerOptions = server.Options

// ServerCiteResult is the wire form of one citation as served on
// POST /cite and emitted by citegen -json.
type ServerCiteResult = server.CiteResult

// NewServer builds the HTTP serving layer over a system whose views are
// already defined (and typically committed, so citations carry pins).
func NewServer(sys *System, opts ServerOptions) *Server { return server.New(sys, opts) }

// LoadSpec builds a ready-to-use System from a spec document (the
// line-oriented format of testdata/paper.dcs: relations, tuples, views,
// citation queries). It is what cmd/citeserved and cmd/citegen load, so
// embedders can serve the same files the tools do.
func LoadSpec(src string) (*System, error) { return spec.Load(src) }

// RewriteMethod selects the rewriting algorithm.
type RewriteMethod = rewrite.Method

// Rewriting algorithms.
const (
	// MiniCon is the MiniCon algorithm (default).
	MiniCon = rewrite.MethodMiniCon
	// Bucket is the bucket-algorithm baseline.
	Bucket = rewrite.MethodBucket
)
