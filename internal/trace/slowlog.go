package trace

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// SlowEntry is one slow-query log line: everything an operator needs to
// reconstruct where the request spent its time, as a single JSON object
// per line (jq-friendly, greppable by trace_id).
type SlowEntry struct {
	Time     time.Time `json:"ts"`
	TraceID  string    `json:"trace_id"`
	Endpoint string    `json:"endpoint"`
	DurUS    int64     `json:"dur_us"`
	// ThresholdUS echoes the configured threshold, so mixed-fleet logs
	// stay interpretable.
	ThresholdUS int64        `json:"threshold_us"`
	Queries     []string     `json:"queries,omitempty"`
	Spans       SpanSnapshot `json:"spans"`
}

// SlowLogger serializes slow-query entries as JSON lines to one
// writer. Writes are mutex-serialized so concurrent handlers cannot
// interleave lines; everything else (the threshold check) stays with
// the caller, off this lock.
type SlowLogger struct {
	mu sync.Mutex
	w  io.Writer
}

// NewSlowLogger builds a logger over w (typically os.Stderr or an
// append-opened file). A nil writer yields a nil logger, and a nil
// logger swallows Log calls.
func NewSlowLogger(w io.Writer) *SlowLogger {
	if w == nil {
		return nil
	}
	return &SlowLogger{w: w}
}

// Log emits one entry as a JSON line. Nil-safe.
func (l *SlowLogger) Log(e SlowEntry) {
	if l == nil {
		return
	}
	b, err := json.Marshal(e)
	if err != nil {
		return
	}
	b = append(b, '\n')
	l.mu.Lock()
	_, _ = l.w.Write(b)
	l.mu.Unlock()
}
