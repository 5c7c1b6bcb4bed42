package main

import (
	"fmt"
	"net/http"
	"os"
	"runtime"
	"slices"
	"time"

	"repro/internal/server"
)

// setupRepeats is how many times a run sets its system up before the
// timed pass; the last set-up is the one served. setupsBetween more run
// after each window, so that the set-up times sample a shared machine's
// speed across the whole run; setup_s is their median.
const (
	setupRepeats  = 5
	setupsBetween = 2
)

// config is one invocation's settings.
type config struct {
	seed    int64
	seconds int
	trace   bool
	tmp     string // parent of durable data directories
	spans   string // traced-pass span dump, "" = none
}

// metric is one reported number with its unit and the sample count
// behind it (0 for counts and ratios).
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// record is one workload run: what -out appends and -compare reads.
type record struct {
	Workload   string            `json:"workload"`
	Seed       int64             `json:"seed"`
	Seconds    int               `json:"seconds"`
	Trace      bool              `json:"trace"`
	Correct    bool              `json:"correct"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	Mismatches int               `json:"mismatches"`
	Metrics    map[string]metric `json:"metrics"`
	Sizes      workload          `json:"sizes"`
	Env        environment       `json:"env"`
}

// environment records what a run's numbers depend on besides the code.
type environment struct {
	Go         string `json:"go"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Clients    int    `json:"clients"`
	Fsync      string `json:"fsync,omitempty"`
}

// run executes one workload: the timed pass with its correctness gate,
// then with cfg.trace the traced pass.
func run(w workload, cfg config) (*record, error) {
	st := buildStream(w, shapeOf(w), cfg.seed, w.Ops)
	rec := &record{
		Workload: w.Name, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		Metrics: make(map[string]metric), Sizes: w,
		Env: environment{Go: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Clients: clients},
	}
	if w.Durable {
		// The zero DurableOptions: fsync at every commit.
		rec.Env.Fsync = "on-commit"
		if err := os.MkdirAll(cfg.tmp, 0o755); err != nil {
			return nil, err
		}
	}
	timed, err := measure(w, cfg, st, rec)
	if err != nil {
		return nil, err
	}
	if cfg.trace {
		runtime.GC() // release the timed pass's system first
		if err := tracedPass(w, cfg, st, timed, rec.Metrics); err != nil {
			return nil, err
		}
	}
	rec.Correct = rec.Failed == 0 && rec.Mismatches == 0
	return rec, nil
}

// measure sets the system up setupRepeats times, runs the timed pass on
// the last set-up, and checks the sampled answers. It returns the timed
// pass's outcome.
func measure(w workload, cfg config, st stream, rec *record) (*outcome, error) {
	var s *served
	var setups []float64
	var heapBefore uint64
	for range setupRepeats {
		if s != nil {
			if err := s.remove(); err != nil {
				return nil, err
			}
			s = nil
		}
		// Every set-up starts from the same collector state.
		heapBefore = liveHeap()
		var took time.Duration
		var err error
		s, took, err = setUp(w, cfg.tmp, server.Options{}, nil)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, took.Seconds())
	}
	defer s.remove()
	heapSetup := liveHeap()

	client := newClient()
	defer client.CloseIdleConnections()
	before, err := scrape(client, s.ts.URL)
	if err != nil {
		return nil, err
	}
	out := newOutcome(st)
	ws, err := timedPass(client, s.ts.URL, st, out, func() error {
		for range setupsBetween {
			runtime.GC()
			probe, took, err := setUp(w, cfg.tmp, server.Options{}, nil)
			if err != nil {
				return fmt.Errorf("set-up: %w", err)
			}
			setups = append(setups, took.Seconds())
			if err := probe.remove(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	rec.Metrics["setup_s"] = metric{median(setups), "s", len(setups)}
	after, err := scrape(client, s.ts.URL)
	if err != nil {
		return nil, err
	}

	rec.Attempted = len(st.Ops)
	for _, code := range out.status {
		if code != http.StatusOK {
			rec.Failed++
		}
	}
	timedMetrics(rec.Metrics, st, out, ws, heapBefore)
	layerMetrics(rec.Metrics, st, out, ws, before, after, heapSetup)

	if !w.Durable {
		rec.Mismatches, err = checkReference(w, st, out)
		return out, err
	}
	// Recovery reads the directory the served system has closed.
	if err := s.close(); err != nil {
		return nil, err
	}
	mismatches, recovery, err := checkDurable(s.dir, st, out)
	if err != nil {
		return nil, err
	}
	rec.Mismatches = mismatches
	rec.Metrics["recovery_s"] = metric{median(recovery), "s", len(recovery)}
	return out, nil
}

// scrape fetches and parses /metrics.
func scrape(c *http.Client, base string) (exposition, error) {
	resp, err := c.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	return parseExposition(resp.Body)
}

// timedMetrics derives the timed pass's metrics. Rates, medians, resource
// use and the live heap are the median over windows; a latency tail is
// taken over every window's samples together.
func timedMetrics(m map[string]metric, st stream, out *outcome, ws []window, heapBefore uint64) {
	var tput, cpu, allocs, kb, heap []float64
	for _, w := range ws {
		n := float64(w.hi - w.lo)
		tput = append(tput, n/w.wall.Seconds())
		cpu = append(cpu, float64(w.cpu.Nanoseconds())/1e3/n)
		allocs = append(allocs, float64(w.mallocs)/n)
		kb = append(kb, float64(w.bytes)/1024/n)
		heap = append(heap, (float64(w.heap)-float64(heapBefore))/1e6)
	}
	m["throughput_ops_s"] = metric{median(tput), "1/s", len(ws)}
	m["cpu_us_per_op"] = metric{median(cpu), "us", len(ws)}
	m["allocs_per_op"] = metric{median(allocs), "count", len(ws)}
	m["alloc_kb_per_op"] = metric{median(kb), "KB", len(ws)}
	m["heap_live_mb"] = metric{median(heap), "MB", len(ws)}

	for _, kind := range []opKind{opCite, opIngest, opCommit} {
		var p50s, all []float64
		for _, w := range ws {
			var xs []float64
			for i := w.lo; i < w.hi; i++ {
				if st.Ops[i].Kind == kind && out.status[i] == http.StatusOK {
					xs = append(xs, float64(out.lat[i].Nanoseconds())/1e6)
				}
			}
			slices.Sort(xs)
			if len(xs) > 0 {
				p50s = append(p50s, quantile(xs, 0.5))
			}
			all = append(all, xs...)
		}
		if len(all) == 0 {
			continue
		}
		slices.Sort(all)
		m[kind.String()+"_p50_ms"] = metric{median(p50s), "ms", len(all)}
		// The cite tail is a per-layer metric with a fixed name; the write
		// tails take the highest quantile the sample count supports.
		q, name := 0.99, "p99"
		if kind != opCite {
			if q, name = tailQuantile(len(all)); q <= 0.5 {
				continue
			}
		}
		m[kind.String()+"_"+name+"_ms"] = metric{quantile(all, q), "ms", len(all)}
	}
}
