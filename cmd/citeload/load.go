package main

import (
	"bytes"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// The load shape: one process, clients closed-loop clients sharing as
// many keep-alive connections, and after an untimed warm-up of one
// warmupShare-th of the stream, the rest cut into windows timed back to
// back.
const (
	clients     = 2
	windows     = 5
	warmupShare = 20
)

// outcome records every op of one pass. Each slot is written by exactly
// one client goroutine and read after the pass ends.
type outcome struct {
	lat    []time.Duration
	status []int // HTTP status; 0 = transport error
	body   [][]byte
	// keep marks the ops whose response bodies are kept: the sampled
	// cites and every commit.
	keep []bool
}

// window is the resource use of one window of the timed pass.
type window struct {
	lo, hi  int
	wall    time.Duration
	cpu     time.Duration // user + system, whole process
	mallocs uint64
	bytes   uint64
	gcs     uint32
	pause   time.Duration // stop-the-world GC pauses
	heap    uint64        // live heap after a full collection at the window's end
}

func newOutcome(st stream) *outcome {
	n := len(st.Ops)
	o := &outcome{lat: make([]time.Duration, n), status: make([]int, n), body: make([][]byte, n), keep: make([]bool, n)}
	for _, i := range st.Sample {
		o.keep[i] = true
	}
	for i, op := range st.Ops {
		if op.Kind == opCommit {
			o.keep[i] = true
		}
	}
	return o
}

func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConns:        clients,
		MaxIdleConnsPerHost: clients,
		MaxConnsPerHost:     clients,
		DisableCompression:  true,
	}}
}

// hooks adjust a pass: the traced pass marks its requests and inspects
// each reply. The zero value sends the ops as they are.
type hooks struct {
	suffix func(op) string // appended to the request path
	header string          // request header that carries the op index
	after  func(i int)     // runs after op i completed, outside its timing
}

// drive sends ops[lo:hi] from clients closed-loop clients: each sends its
// next op only after the previous reply arrived. It returns when every
// op has completed.
func drive(c *http.Client, base string, ops []op, lo, hi int, out *outcome, h hooks) {
	var next atomic.Int64
	next.Store(int64(lo))
	var wg sync.WaitGroup
	for range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= hi {
					return
				}
				send(c, base, ops[i], i, out, h)
				if h.after != nil {
					h.after(i)
				}
			}
		}()
	}
	wg.Wait()
}

// send performs op i and records its latency, status and, when kept,
// its reply body. A request that cannot be built or sent leaves status 0.
func send(c *http.Client, base string, o op, i int, out *outcome, h hooks) {
	url := base + o.Path
	if h.suffix != nil {
		url += h.suffix(o)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(o.Body))
	if err != nil {
		return
	}
	req.Header.Set("Content-Type", "application/json")
	if h.header != "" {
		req.Header.Set(h.header, strconv.Itoa(i))
	}
	start := time.Now()
	resp, err := c.Do(req)
	if err == nil {
		if out.keep[i] {
			out.body[i], err = io.ReadAll(resp.Body)
		} else {
			_, err = io.Copy(io.Discard, resp.Body)
		}
		resp.Body.Close()
	}
	out.lat[i] = time.Since(start)
	if err == nil {
		out.status[i] = resp.StatusCode
	}
}

// timedPass runs the warm-up, then the rest of the stream in windows
// back-to-back windows. Between windows, outside the timing, it reads
// the process's allocation and CPU counters, collects garbage (which
// samples the live heap once per window), runs between, and collects
// again, so every window starts from the same collector state.
func timedPass(c *http.Client, base string, st stream, out *outcome, between func() error) ([]window, error) {
	warm := len(st.Ops) / warmupShare
	drive(c, base, st.Ops, 0, warm, out, hooks{})
	n := len(st.Ops) - warm
	ws := make([]window, windows)
	var ms runtime.MemStats
	runtime.GC()
	for k := range ws {
		w := &ws[k]
		w.lo, w.hi = warm+k*n/windows, warm+(k+1)*n/windows
		runtime.ReadMemStats(&ms)
		m0, b0, g0, p0, c0 := ms.Mallocs, ms.TotalAlloc, ms.NumGC, ms.PauseTotalNs, cpuTime()
		start := time.Now()
		drive(c, base, st.Ops, w.lo, w.hi, out, hooks{})
		w.wall = time.Since(start)
		c1 := cpuTime()
		runtime.ReadMemStats(&ms)
		w.cpu, w.mallocs, w.bytes = c1-c0, ms.Mallocs-m0, ms.TotalAlloc-b0
		w.gcs, w.pause = ms.NumGC-g0, time.Duration(ms.PauseTotalNs-p0)
		w.heap = liveHeap()
		if err := between(); err != nil {
			return nil, err
		}
		runtime.GC()
	}
	return ws, nil
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeap is the live heap after full collections, in bytes. It
// collects twice: memory held by an object with a finalizer is freed
// only by the collection after the finalizer ran.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
