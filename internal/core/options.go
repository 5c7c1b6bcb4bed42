package core

import (
	"repro/internal/fixity"
	"repro/internal/policy"
	"repro/internal/rewrite"
)

// CiteOption is a per-call request parameter for the CiteContext family.
// Options override the system-wide defaults (SetPolicyNamed, the
// generator's Method, GOMAXPROCS batch workers) for one call only — two
// concurrent requests with different options never observe each other,
// which is what makes the option form safe for serving many tenants off
// one System where the mutable global setters are not.
type CiteOption func(*citeConfig)

// citeConfig is the resolved per-call request configuration. The zero
// value reproduces the legacy Cite behavior: head database, system
// defaults, pin against the latest committed version.
type citeConfig struct {
	version     fixity.Version // 0 = head
	policy      *policy.Policy
	method      *rewrite.Method
	parallelism int
	noPin       bool
}

func resolveOptions(opts []CiteOption) citeConfig {
	var cfg citeConfig
	for _, opt := range opts {
		opt(&cfg)
	}
	return cfg
}

// AtVersion requests a time-travel citation: the query is cited against
// the immutable committed snapshot v — views materialized, citation
// records resolved and the fixity pin executed all at v — rather than the
// mutable head. The result is byte-identical to the citation that was (or
// would have been) generated while v was the head, and it stays available
// forever: committed snapshots cannot change, and the engine's caches key
// every entry by the snapshot content it read, so v shares the entries of
// every snapshot holding the same content, and a concurrent Commit
// neither blocks the call nor invalidates them. Citing a version that was
// never committed fails with ErrUnknownVersion.
func AtVersion(v fixity.Version) CiteOption {
	return func(c *citeConfig) { c.version = v }
}

// WithPolicy overrides the combination policy for this call only,
// taking precedence over the SetPolicyNamed default.
func WithPolicy(p policy.Policy) CiteOption {
	return func(c *citeConfig) { c.policy = &p }
}

// WithRewriteMethod overrides the rewriting algorithm for this call only.
func WithRewriteMethod(m rewrite.Method) CiteOption {
	return func(c *citeConfig) { c.method = &m }
}

// WithParallelism bounds how many members of a CiteAll/CiteEach batch
// cite at once: 1 cites them one after another, and 0 (or omitting the
// option) means GOMAXPROCS. Each cite, in a batch or alone, runs on one
// goroutine, so the option never changes a result and bumps no epoch.
func WithParallelism(n int) CiteOption {
	return func(c *citeConfig) { c.parallelism = n }
}

// WithoutFixityPin skips the fixity re-execution: the citation carries
// its structural result and records but no version pin. Use it when the
// store has no committed versions yet, or when the caller only needs the
// records and wants to skip the pin's query re-execution cost.
func WithoutFixityPin() CiteOption {
	return func(c *citeConfig) { c.noPin = true }
}
