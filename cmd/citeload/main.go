// Command citeload is the repository's serving benchmark. It builds a
// synthetic GtoPdb system from a seed, serves it with the server's
// production defaults on a loopback listener, and drives one of four
// pre-generated traffic mixes (hot, cold, history, mixed) from two
// closed-loop clients. It prints every metric by name with its unit,
// checks a sample of answers against a reference system, and exits
// non-zero when an op fails or an answer mismatches.
//
// Usage:
//
//	citeload [-workload hot|cold|history|mixed|all] [-seed n] [-seconds n] [-trace 0|1] [-spans file] [-out file]
//	citeload -compare [-bench BENCHMARK.json] base.json [new.json]
//
// See README.md for the metric definitions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"slices"
)

func main() {
	os.Exit(mainErr(os.Args[1:], os.Stdout, os.Stderr))
}

func mainErr(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("citeload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run: hot, cold, history, mixed or all")
	seed := fs.Int64("seed", 1, "seed for the op streams")
	seconds := fs.Int("seconds", 10, "time budget the op streams are sized for, in seconds")
	trace := fs.Int("trace", 0, "1 adds the traced pass and reports the per-layer metrics")
	spans := fs.String("spans", "", "write the traced pass's spans to this file as JSON lines")
	outFile := fs.String("out", "", "append each workload run as one JSON line to this file")
	tmp := fs.String("tmp", ".bench_build/tmp", "directory for durable data directories")
	compare := fs.Bool("compare", false, "compare result files: citeload -compare base.json new.json (one file: summarize it)")
	bench := fs.String("bench", "BENCHMARK.json", "benchmark definition holding the metric bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() < 1 || fs.NArg() > 2 {
			fmt.Fprintln(stderr, "citeload: -compare needs one or two result files")
			return 2
		}
		if err := runCompare(stdout, *bench, fs.Arg(0), fs.Arg(1)); err != nil {
			fmt.Fprintln(stderr, "citeload:", err)
			return 1
		}
		return 0
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "citeload: -trace must be 0 or 1")
		return 2
	}
	if *seconds < 1 {
		fmt.Fprintln(stderr, "citeload: -seconds must be at least 1")
		return 2
	}
	var todo []workload
	if *name == "all" {
		todo = workloads
	} else if w, ok := lookupWorkload(*name); ok {
		todo = []workload{w}
	} else {
		fmt.Fprintf(stderr, "citeload: unknown workload %q\n", *name)
		return 2
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1, tmp: *tmp, spans: *spans}

	var recs []*record
	for _, w := range todo {
		rec, err := run(w.scaled(cfg.seconds), cfg)
		if err != nil {
			fmt.Fprintf(stderr, "citeload: %s: %v\n", w.Name, err)
			return 1
		}
		printRecord(stdout, rec)
		if *outFile != "" {
			if err := appendRecord(*outFile, rec); err != nil {
				fmt.Fprintln(stderr, "citeload:", err)
				return 1
			}
		}
		recs = append(recs, rec)
	}
	res := summary(recs, cfg.trace)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "citeload:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// result is the last line of standard output. Its metrics carry no
// sample count, so each encodes as exactly a value and a unit.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// summary builds the result line. It carries the end-to-end metrics, or
// with trace the per-layer ones; with several workloads each name is
// prefixed by its workload.
func summary(recs []*record, trace bool) result {
	names := endToEndMetrics
	if trace {
		names = perLayerMetrics
	}
	res := result{Correct: true, Metrics: make(map[string]metric)}
	for _, rec := range recs {
		res.Correct = res.Correct && rec.Correct
		res.Attempted += rec.Attempted
		res.Failed += rec.Failed
		for _, n := range names {
			key := n
			if len(recs) > 1 {
				key = rec.Workload + "/" + n
			}
			m := rec.Metrics[n]
			res.Metrics[key] = metric{Value: m.Value, Unit: m.Unit}
		}
	}
	return res
}

// printRecord writes one workload run for people: every metric the run
// measured, sorted by name, with its unit and sample count.
func printRecord(w io.Writer, rec *record) {
	fmt.Fprintf(w, "workload %s  seed=%d  seconds=%d  trace=%v  families=%d  ops=%d  clients=%d  %s nproc=%d\n",
		rec.Workload, rec.Seed, rec.Seconds, rec.Trace, rec.Sizes.Families, rec.Sizes.Ops, rec.Env.Clients, rec.Env.Go, rec.Env.NumCPU)
	errorRate := 0.0
	if rec.Attempted > 0 {
		errorRate = float64(rec.Failed) / float64(rec.Attempted)
	}
	fmt.Fprintf(w, "  %-40s %14.6g %s\n", "error_rate", errorRate, "ratio")
	fmt.Fprintf(w, "  %-40s %14d %s\n", "mismatches", rec.Mismatches, "count")
	for _, n := range slices.Sorted(maps.Keys(rec.Metrics)) {
		m := rec.Metrics[n]
		fmt.Fprintf(w, "  %-40s %14.6g %s", n, m.Value, m.Unit)
		if m.N > 0 {
			fmt.Fprintf(w, "  (n=%d)", m.N)
		}
		fmt.Fprintln(w)
	}
}

func appendRecord(path string, rec *record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
