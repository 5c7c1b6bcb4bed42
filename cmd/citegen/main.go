// Command citegen generates a citation for a conjunctive query over a
// database described by a spec file (see internal/spec for the format).
//
// Usage:
//
//	citegen -spec db.dcs -query "Q(FName) :- Family(FID, FName, Desc)" \
//	        [-format text|bibtex|ris|xml|json] [-policy minsize|maxcoverage|all] \
//	        [-partial] [-pruned] [-explain] [-json] [-at N]
//	citegen -open dir -query "..." [same flags]
//
// -at N cites against committed version N instead of the head — the
// loaded state commits as version 1, so -at is useful with spec files
// that script further commits, and it exercises exactly the
// System.CiteContext(…, AtVersion(N)) path a server runs for
// POST /cite?version=N.
//
// -open dir starts from a durable data directory (one citeserved built
// with -data-dir) instead of a spec: the whole committed version history
// is recovered read-only — nothing is committed and the directory is not
// written — so -at N can re-derive the citation any pinned version
// handed out before a crash. -spec and -open are mutually exclusive.
//
// -json emits the full machine-readable envelope (record, text, fixity
// pin) that cmd/citeserved answers on POST /cite — the same citation
// renders identically on disk and on the wire. -format json, by
// contrast, prints only the record object.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"

	datacitation "repro"
	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/spec"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("citegen: ")
	specPath := flag.String("spec", "", "path to the spec file (schema + tuples + views)")
	openDir := flag.String("open", "", "durable data directory to recover (read-only) instead of a spec")
	querySrc := flag.String("query", "", "conjunctive query to cite")
	outFormat := flag.String("format", "text", "output format: text, bibtex, ris, xml, json")
	polName := flag.String("policy", "minsize", "+R policy: minsize, maxcoverage, all")
	partial := flag.Bool("partial", false, "fall back to partial rewritings")
	pruned := flag.Bool("pruned", false, "cost-pruned generation (evaluate one rewriting)")
	explain := flag.Bool("explain", false, "print rewritings and formal citation expressions")
	bibKey := flag.String("key", "datacitation", "BibTeX citation key")
	asJSON := flag.Bool("json", false, "emit the citeserved wire envelope (record + text + pin) as JSON")
	atVersion := flag.Int("at", 0, "cite against committed version N instead of the head (0 = head)")
	flag.Parse()

	if *specPath != "" && *openDir != "" {
		log.Fatal("-spec and -open are mutually exclusive: pass exactly one source")
	}
	if (*specPath == "" && *openDir == "") || *querySrc == "" {
		flag.Usage()
		os.Exit(2)
	}
	p, ok := core.PolicyByName(*polName)
	if !ok {
		log.Fatalf("unknown policy %q", *polName)
	}

	var sys *datacitation.System
	if *openDir != "" {
		var err error
		sys, err = core.Open(*openDir, core.DurableOptions{ReadOnly: true})
		if err != nil {
			log.Fatalf("recovering %s: %v", *openDir, err)
		}
	} else {
		raw, err := os.ReadFile(*specPath)
		if err != nil {
			log.Fatal(err)
		}
		sys, err = spec.Load(string(raw))
		if err != nil {
			log.Fatal(err)
		}
	}
	sys.Generator().AllowPartial = *partial
	sys.Generator().CostPruned = *pruned
	// Spec-loaded state commits so the citation carries a pin; a
	// recovered directory already has its committed history and must not
	// gain a version from a read-only tool.
	if *specPath != "" {
		sys.Commit("citegen load")
	}

	// The policy travels as a per-call option (the context-first request
	// API) instead of mutating the system default; -at selects the target
	// version the same way POST /cite?version=N does. With -open, the
	// recovered (journaled) default policy governs unless -policy was
	// given explicitly — silently forcing the flag default would re-derive
	// a different citation than the one the directory's server pinned.
	var opts []datacitation.CiteOption
	explicitPolicy := *specPath != ""
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "policy" {
			explicitPolicy = true
		}
	})
	if explicitPolicy {
		opts = append(opts, datacitation.WithPolicy(p))
	}
	if *atVersion > 0 {
		opts = append(opts, datacitation.AtVersion(datacitation.Version(*atVersion)))
	}
	cite, err := sys.CiteContext(context.Background(), *querySrc, opts...)
	if err != nil {
		log.Fatal(err)
	}

	// -json owns stdout: it must stay a single parseable document, so it
	// preempts -explain's text blocks and the -format rendering.
	if *asJSON {
		out, err := json.MarshalIndent(server.NewCiteResult(*querySrc, cite), "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(string(out))
		return
	}

	if *explain {
		fmt.Printf("-- %d rewriting(s) --\n", len(cite.Result.Rewritings))
		for _, rw := range cite.Result.Rewritings {
			fmt.Printf("  %s\n", rw)
		}
		fmt.Printf("-- %d answer tuple(s) --\n", len(cite.Result.Tuples))
		for _, tc := range cite.Result.Tuples {
			fmt.Printf("  %s\n    formal: %s\n    selected: %s\n", tc.Tuple, tc.Expr(), tc.Selected())
		}
		fmt.Printf("-- stats: rewritings=%d evaluated=%d candidates=%d atoms=%d pruned=%v --\n",
			cite.Result.Stats.RewritingsFound, cite.Result.Stats.RewritingsEvaluated,
			cite.Result.Stats.CandidatesExamined, cite.Result.Stats.AtomsResolved,
			cite.Result.Stats.Pruned)
	}

	switch *outFormat {
	case "text":
		fmt.Println(cite.Text())
	case "bibtex":
		fmt.Println(cite.BibTeX(*bibKey))
	case "ris":
		fmt.Print(cite.RIS())
	case "xml":
		out, err := cite.XML()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(out)
	case "json":
		out, err := cite.JSON()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(out)
	default:
		log.Fatalf("unknown format %q", *outFormat)
	}
}
