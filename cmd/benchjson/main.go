// Command benchjson converts `go test -bench` text output (read from
// stdin) into a JSON document, so CI can archive benchmark baselines —
// BENCH_eval.json in the bench-smoke job — that later PRs diff against
// for a performance trajectory. With -check it instead holds that output
// to the bars of a ledger, BENCH.json at the repository root.
//
// Usage:
//
//	go test -run '^$' -bench . -benchmem . | benchjson > BENCH_eval.json
//	benchjson -check BENCH.json < bench.out
//
// Standard benchmark lines parse into objects with per-metric fields;
// context lines (goos, goarch, pkg, cpu) are captured as environment
// metadata. Unknown lines are ignored.
//
// The check prints every sample a bar reads and its verdict, and exits 1
// when a bar fails or lacks its samples.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"slices"
	"strconv"
	"strings"
)

// Result is one parsed benchmark line.
type Result struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op,omitempty"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
	// Extra holds any further "value unit" metric pairs (e.g. MB/s or
	// custom b.ReportMetric units).
	Extra map[string]float64 `json:"extra,omitempty"`

	// metrics holds every pair by unit, the three above included, so a
	// bar can tell a metric the line lacks from one that reads 0.
	metrics map[string]float64
}

// Output is the archived document.
type Output struct {
	Env        map[string]string `json:"env,omitempty"`
	Benchmarks []Result          `json:"benchmarks"`
}

// Bar is one row of the ledger: the samples of metric Unit from every
// benchmark whose name, as go test prints it, starts with Bench, held to
// Cmp Bar. Now and Fail record a value the bar holds and one it must
// fail; Why says what the bar catches.
type Bar struct {
	Bench string  `json:"bench"`
	Unit  string  `json:"unit"`
	Cmp   string  `json:"cmp"` // "<", "<=" or "=="
	Bar   float64 `json:"bar"`
	// Samples is how many samples the bar needs. With Iterations set,
	// only runs of that many iterations count; with Min, the samples'
	// minimum is compared, otherwise each sample is.
	Samples    int       `json:"samples"`
	Iterations int64     `json:"iterations,omitempty"`
	Min        bool      `json:"min,omitempty"`
	Now        []float64 `json:"now"`
	Fail       float64   `json:"fail"`
	Why        string    `json:"why"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchjson: ")
	ledger := flag.String("check", "", "hold the input to the bars of this ledger instead of converting it")
	flag.Parse()
	out, err := read(os.Stdin)
	if err != nil {
		log.Fatal(err)
	}
	if *ledger != "" {
		bars, err := loadBars(*ledger)
		if err != nil {
			log.Fatal(err)
		}
		if !check(os.Stdout, bars, out.Benchmarks) {
			os.Exit(1)
		}
		return
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		log.Fatal(err)
	}
}

// read parses go test -bench output.
func read(r io.Reader) (Output, error) {
	out := Output{Env: map[string]string{}, Benchmarks: []Result{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "Benchmark"):
			if r, ok := parseBench(line); ok {
				out.Benchmarks = append(out.Benchmarks, r)
			}
		case hasEnvPrefix(line):
			k, v, _ := strings.Cut(line, ":")
			out.Env[k] = strings.TrimSpace(v)
		}
	}
	return out, sc.Err()
}

func hasEnvPrefix(line string) bool {
	for _, p := range []string{"goos:", "goarch:", "pkg:", "cpu:"} {
		if strings.HasPrefix(line, p) {
			return true
		}
	}
	return false
}

// parseBench parses "BenchmarkName-8  1314  982525 ns/op  300029 B/op ...".
func parseBench(line string) (Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 2 {
		return Result{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	r := Result{Name: fields[0], Iterations: iters, metrics: map[string]float64{}}
	for i := 2; i+1 < len(fields); i += 2 {
		val, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		r.metrics[fields[i+1]] = val
		switch fields[i+1] {
		case "ns/op":
			r.NsPerOp = val
		case "B/op":
			r.BytesPerOp = val
		case "allocs/op":
			r.AllocsPerOp = val
		default:
			if r.Extra == nil {
				r.Extra = map[string]float64{}
			}
			r.Extra[fields[i+1]] = val
		}
	}
	return r, true
}

// loadBars reads the bars of the ledger at path, refusing a row the
// check could not apply.
func loadBars(path string) ([]Bar, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var ledger struct{ Bars []Bar }
	if err := json.Unmarshal(data, &ledger); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	for i, b := range ledger.Bars {
		if b.Bench == "" || b.Unit == "" || b.Samples < 1 || !slices.Contains([]string{"<", "<=", "=="}, b.Cmp) {
			return nil, fmt.Errorf("%s: bar %d: want a bench, a unit, a cmp of <, <= or == and samples >= 1", path, i)
		}
	}
	return ledger.Bars, nil
}

// check holds results to bars, printing each bar's samples and verdict
// to w, and reports whether every bar holds.
func check(w io.Writer, bars []Bar, results []Result) bool {
	all := true
	for _, b := range bars {
		bar := fmt.Sprintf("%s %s %s", b.Unit, b.Cmp, num(b.Bar))
		var names []string
		var vals []float64
		for _, r := range results {
			v, ok := r.metrics[b.Unit]
			if ok && strings.HasPrefix(r.Name, b.Bench) && (b.Iterations == 0 || r.Iterations == b.Iterations) {
				names, vals = append(names, r.Name), append(vals, v)
			}
		}
		if len(vals) < b.Samples {
			fmt.Fprintf(w, "FAIL  %s* %s: %d samples, want %d\n", b.Bench, bar, len(vals), b.Samples)
			all = false
			continue
		}
		if b.Min {
			for i, v := range vals {
				fmt.Fprintf(w, "      %s %s %s\n", names[i], b.Unit, num(v))
			}
			names, vals = []string{fmt.Sprintf("%s* min of %d", b.Bench, len(vals))}, []float64{slices.Min(vals)}
		}
		for i, v := range vals {
			ok := b.Cmp == "<" && v < b.Bar || b.Cmp == "<=" && v <= b.Bar || b.Cmp == "==" && v == b.Bar
			verdict := "ok  "
			if !ok {
				verdict, all = "FAIL", false
			}
			fmt.Fprintf(w, "%s  %s %s: %s\n", verdict, names[i], bar, num(v))
		}
	}
	return all
}

func num(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }
