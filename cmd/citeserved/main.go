// Command citeserved serves a citation-enabled database over HTTP — the
// paper's deployment model: the repository runs the citation engine as a
// service against its live, evolving database, and clients retrieve
// citations for the query results they used.
//
// It starts from either a spec file (see internal/spec) or a durable data
// directory, commits the loaded state as version 1 so every citation
// carries a fixity pin, and serves the internal/server endpoints until
// SIGINT/SIGTERM, then drains in-flight requests, checkpoints (when
// durable) and exits.
//
// Usage:
//
//	citeserved -spec db.dcs [-data-dir dir] [-addr :8377] [-cache 1024]
//	           [-timeout 30s] [-compute-timeout 0] [-max-inflight 0]
//	           [-parallelism 0] [-policy minsize|maxcoverage|all]
//	           [-fsync always|on-commit|interval] [-checkpoint-every 0]
//	           [-no-commit] [-trace-sample 1.0] [-trace-echo]
//	           [-trace-ring 64] [-slow-query 0] [-slow-query-log file]
//	           [-querystats 256]
//	citeserved -open dir [same serving flags]
//	citeserved -version
//
// Each cite runs on one goroutine. -parallelism bounds only how many
// members of a batch /cite (a body with "queries") are cited at once;
// 0 means GOMAXPROCS and 1 cites them one after another.
//
// Observability: every request gets a latency histogram observation on
// /metrics; sampled requests (-trace-sample, default all) additionally
// carry a span trace through the citation pipeline, retained in an
// in-memory ring served on GET /debug/traces. Requests slower than
// -slow-query are logged as JSON lines (to stderr, or -slow-query-log)
// with their full span tree. -trace-echo lets clients append ?trace=1
// to /cite and receive the span tree in the response envelope. Sampled
// traces also feed the per-query statistics store served on GET
// /debug/querystats (-querystats bounds the tracked fingerprints;
// cmd/citestat renders it as a live top-queries table). pprof is
// always mounted under /debug/pprof/.
//
// Durability: -spec with -data-dir initializes the directory from the
// spec and journals every subsequent mutation (POST /ingest batches,
// commits, view and policy changes) to a checksummed write-ahead log, so
// the whole version history survives a crash. -open recovers from such a
// directory — same version numbers, same snapshot contents, same digests
// — and continues journaling to it. Exactly one of -spec and -open must
// be given: a spec names a fresh state, a directory names a history, and
// silently combining them would fork that history.
//
// Quickstart against the repository's paper fixture:
//
//	citeserved -spec testdata/paper.dcs -data-dir ./data &
//	curl -s localhost:8377/healthz
//	curl -s -X POST localhost:8377/ingest \
//	     -d '{"relation": "Family", "insert": [[99, "Amylin", "A1"]]}'
//	curl -s -X POST localhost:8377/commit -d '{"message": "add amylin"}'
//	kill -9 %1   # crash: versions survive on disk
//	citeserved -open ./data &
//	curl -s localhost:8377/versions   # identical history
//
// Time travel: after further commits (POST /commit), any committed
// version can still be cited — the result is byte-identical to the
// citation generated while that version was live, answers from a cache
// that commits never invalidate, and unknown versions answer 404:
//
//	curl -s -X POST 'localhost:8377/cite?version=1' \
//	     -d '{"query": "Q(FName) :- Family(FID, FName, Desc)"}'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	datacitation "repro"
	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/server"
	"repro/internal/spec"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("citeserved: ")
	specPath := flag.String("spec", "", "path to the spec file (schema + tuples + views)")
	dataDir := flag.String("data-dir", "", "initialize this durable data directory from -spec and journal all mutations to it")
	openDir := flag.String("open", "", "recover from a durable data directory instead of a spec (mutually exclusive with -spec/-data-dir)")
	addr := flag.String("addr", ":8377", "listen address")
	cacheSize := flag.Int("cache", 0, "result-cache entries (0 = default 1024)")
	timeout := flag.Duration("timeout", 0, "per-request deadline (0 = default 30s, negative = none)")
	computeTimeout := flag.Duration("compute-timeout", 0, "detached cache-fill computation deadline (0 = 4×timeout, negative = none)")
	maxInFlight := flag.Int("max-inflight", 0, "admitted concurrent /cite+/ingest requests (0 = 4×GOMAXPROCS, negative = unlimited)")
	parallelism := flag.Int("parallelism", 0, "how many members of a batch /cite are cited at once (0 = GOMAXPROCS)")
	polName := flag.String("policy", "minsize", "+R policy: minsize, maxcoverage, all")
	fsyncMode := flag.String("fsync", "on-commit", "write-ahead log sync policy: always, on-commit, interval")
	checkpointEvery := flag.Int("checkpoint-every", 0, "automatic checkpoint after every N commits (0 = only at shutdown)")
	noCommit := flag.Bool("no-commit", false, "do not commit the loaded state (citations carry no fixity pin until POST /commit)")
	grace := flag.Duration("grace", 10*time.Second, "shutdown grace period")
	traceSample := flag.Float64("trace-sample", 0, "fraction of /cite requests span-traced (0 = default 1.0, negative = off)")
	traceEcho := flag.Bool("trace-echo", false, "allow clients to request their span tree with ?trace=1 on /cite")
	traceRing := flag.Int("trace-ring", 0, "recent traces retained for GET /debug/traces (0 = default 64, negative = off)")
	slowQuery := flag.Duration("slow-query", 0, "log requests at or over this duration with their span tree (0 = off)")
	slowQueryLog := flag.String("slow-query-log", "", "append slow-query JSON lines to this file instead of stderr")
	queryStats := flag.Int("querystats", 0, "query fingerprints tracked for GET /debug/querystats (0 = default 256, negative = off)")
	showVersion := flag.Bool("version", false, "print the build version and exit")
	flag.Parse()

	if *showVersion {
		fmt.Printf("citeserved %s %s\n", server.Version, runtime.Version())
		return
	}

	switch {
	case *specPath != "" && *openDir != "":
		log.Fatal("-spec and -open are mutually exclusive: a spec names a fresh state, a data directory names an existing history; pass exactly one")
	case *openDir != "" && *dataDir != "":
		log.Fatal("-open and -data-dir are mutually exclusive: -open already names the data directory it keeps journaling to")
	case *specPath == "" && *openDir == "":
		flag.Usage()
		os.Exit(2)
	}
	fsync, err := durable.ParseFsyncPolicy(*fsyncMode)
	if err != nil {
		log.Fatal(err)
	}
	if _, ok := core.PolicyByName(*polName); !ok {
		log.Fatalf("unknown policy %q", *polName)
	}
	durOpts := core.DurableOptions{Fsync: fsync, CheckpointEvery: *checkpointEvery}

	var sys *datacitation.System
	switch {
	case *openDir != "":
		start := time.Now()
		sys, err = core.Open(*openDir, durOpts)
		if err != nil {
			log.Fatalf("recovering %s: %v", *openDir, err)
		}
		// -policy only overrides the recovered (journaled) default when
		// the operator explicitly asked for it.
		explicitPolicy := false
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "policy" {
				explicitPolicy = true
			}
		})
		if explicitPolicy {
			if err := sys.SetPolicyNamed(*polName); err != nil {
				log.Fatal(err)
			}
		}
		stats, _ := sys.Durability()
		log.Printf("recovered %s in %s: version %d (%d tuples at head), %d views",
			*openDir, time.Since(start).Round(time.Millisecond), stats.RecoveredVersion,
			sys.Database().Size(), sys.Registry().Len())
	default:
		raw, err := os.ReadFile(*specPath)
		if err != nil {
			log.Fatal(err)
		}
		sys, err = spec.Load(string(raw))
		if err != nil {
			log.Fatal(err)
		}
		if err := sys.SetPolicyNamed(*polName); err != nil {
			log.Fatal(err)
		}
		if *dataDir != "" {
			if durable.Initialized(*dataDir) {
				log.Fatalf("%s is already a data directory; recover from it with -open %s (without -spec) instead of re-initializing", *dataDir, *dataDir)
			}
			if err := sys.EnableDurability(*dataDir, durOpts); err != nil {
				log.Fatal(err)
			}
			log.Printf("journaling to %s (fsync %s)", *dataDir, fsync)
		}
		if !*noCommit {
			info := sys.Commit("citeserved load: " + *specPath)
			log.Printf("committed loaded state as version %d (%d tuples)", info.Version, info.Tuples)
		}
	}

	var slowLogW io.Writer
	if *slowQueryLog != "" {
		f, err := os.OpenFile(*slowQueryLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			log.Fatalf("opening slow-query log: %v", err)
		}
		defer f.Close()
		slowLogW = f
	}

	srv := server.New(sys, server.Options{
		CacheSize:      *cacheSize,
		RequestTimeout: *timeout,
		ComputeTimeout: *computeTimeout,
		MaxInFlight:    *maxInFlight,
		TraceSample:    *traceSample,
		TraceEcho:      *traceEcho,
		TraceRing:      *traceRing,
		SlowQuery:      *slowQuery,
		SlowQueryLog:   slowLogW,
		QueryStats:     *queryStats,
		Parallelism:    *parallelism,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	source := *specPath
	if source == "" {
		source = *openDir
	}
	log.Printf("serving %s on http://%s (%d views, epoch %d)",
		source, ln.Addr(), sys.Registry().Len(), sys.Version())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	select {
	case err := <-serveErr:
		log.Fatal(err)
	case <-ctx.Done():
	}
	stop()
	log.Printf("shutting down (grace %s)", *grace)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		log.Printf("shutdown: %v", err)
	}
	if stats, ok := sys.Durability(); ok && stats.Enabled {
		if err := sys.Checkpoint(); err != nil {
			log.Printf("final checkpoint: %v", err)
		} else {
			log.Print("checkpointed")
		}
		if err := sys.CloseDurability(); err != nil {
			log.Printf("closing log: %v", err)
		}
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	log.Print("bye")
}
