// Package datacitation is a Go implementation of the data-citation model
// of Davidson, Buneman, Deutch, Milo and Silvello, "Data Citation: A
// Computational Challenge" (PODS 2017).
//
// The model: a database owner declares citation views — conjunctive-query
// views, optionally parameterized by λ-variables, each carrying citation
// queries (which pull citation snippets from the database) and a citation
// function (which assembles the snippets into a citation record). Given an
// arbitrary conjunctive query Q, the system rewrites Q over the views,
// evaluates each rewriting with citation annotations propagated through
// the provenance-semiring machinery of Green et al., and combines the
// per-view citations with four owner-chosen policies: `·` for joint use
// within a binding, `+` for alternative bindings, `+R` for alternative
// rewritings, and Agg for aggregating tuple-level citations into the
// citation of the whole answer.
//
// Quick start:
//
//	sys := datacitation.NewSystem(mySchema)
//	// load data into sys.Database(), then:
//	err := sys.DefineView(
//	    "lambda FID. V1(FID, FName, Desc) :- Family(FID, FName, Desc)",
//	    datacitation.NewRecord("database", "IUPHAR/BPS Guide to PHARMACOLOGY"),
//	    datacitation.CitationSpec{
//	        Query:  "lambda FID. CV1(FID, PName) :- Committee(FID, PName)",
//	        Fields: []string{"identifier", "author"},
//	    })
//	sys.Commit("initial release")
//	cite, err := sys.Cite("Q(FName) :- Family(FID, FName, Desc), FamilyIntro(FID, Text)")
//	fmt.Println(cite.Text())
//
// The context-first form of the same request takes per-call options —
// AtVersion cites any committed snapshot (time travel, byte-identical to
// the citation generated when that version was live), WithPolicy /
// WithRewriteMethod override the system defaults for one call, and
// cancellation propagates down to the join enumeration:
//
//	cite, err := sys.CiteContext(ctx, query, datacitation.AtVersion(1))
//
// To serve citations over HTTP — with a version-keyed coalescing result
// cache, admission control and metrics — wrap the system in NewServer
// (or run cmd/citeserved against a spec file):
//
//	srv := datacitation.NewServer(sys, datacitation.ServerOptions{})
//	go srv.ListenAndServe(":8377")
//
// To make the version history survive restarts, attach a durable data
// directory — every mutation is then journaled to a checksummed
// write-ahead log before it touches storage, and OpenSystem recovers
// the exact history (same versions, same contents, same digests) after
// a crash:
//
//	_ = sys.EnableDurability(dir, datacitation.DurableOptions{})
//	...
//	sys, err := datacitation.OpenSystem(dir, datacitation.DurableOptions{})
//
// The package is a façade: the implementation lives in internal/
// subpackages (cq, rewrite, contain, semiring, eval, citeexpr, policy,
// citation, fixity, evolution, format, storage, durable, server),
// documented in DESIGN.md.
package datacitation
