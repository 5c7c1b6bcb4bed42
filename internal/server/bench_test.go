package server

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
)

// replayBody is a request body that rewinds without allocating, so a
// benchmark can serve one *http.Request many times and count only the
// server's own allocations.
type replayBody struct {
	bytes.Reader
	raw []byte
}

func newReplayBody(raw []byte) *replayBody {
	b := &replayBody{raw: raw}
	b.rewind()
	return b
}

func (b *replayBody) rewind()      { b.Reader.Reset(b.raw) }
func (b *replayBody) Close() error { return nil }

// discardWriter is a reusable ResponseWriter that drops the body.
type discardWriter struct{ h http.Header }

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardWriter) WriteHeader(int)             {}

// hotQuery is a citeload hot-workload cite: one family with its intro.
var hotQuery = gtopdbQuery(1, 7)

// hotResult cites hotQuery once on a 2,000-family GtoPdb system and
// returns its wire form, as a cache hit would serve it.
func hotResult(b *testing.B) (CiteResult, uint64, int64, int) {
	b.Helper()
	sys := gtopdbSystem(b, 2000)
	c, err := sys.CiteContext(context.Background(), hotQuery)
	if err != nil {
		b.Fatal(err)
	}
	_, epoch, _, version, err := sys.Snapshot(0)
	if err != nil {
		b.Fatal(err)
	}
	res := NewCiteResult(hotQuery, c)
	res.Cache = "hit"
	return res, c.Result.Origin, epoch, int(version)
}

// BenchmarkCiteEnvelope encodes one single-result /cite reply for a
// hot-workload citation.
func BenchmarkCiteEnvelope(b *testing.B) {
	res, origin, epoch, version := hotResult(b)
	w := &discardWriter{h: make(http.Header)}
	b.Run("reflective", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			writeJSON(w, http.StatusOK, citeResponse{Epoch: epoch, Version: version, Result: &res})
		}
	})
	enc, err := encodeCite(res, origin)
	if err != nil {
		b.Fatal(err)
	}
	outs := []citeOutcome{{query: res.Query, cite: enc, cache: "hit"}}
	b.Run("spliced", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			if _, err := writeCite(w, epoch, version, true, outs, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkDecodeCiteBody decodes a hot-workload /cite body, the
// request half of the envelope cost.
func BenchmarkDecodeCiteBody(b *testing.B) {
	body := newReplayBody([]byte(`{"query": "` + hotQuery + `"}`))
	req := httptest.NewRequest(http.MethodPost, "/cite", body)
	w := &discardWriter{h: make(http.Header)}
	b.ReportAllocs()
	for range b.N {
		body.rewind()
		var cr citeRequest
		if err := decodeBody(w, req, &cr); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServerCiteHit serves a warm single-query cache hit through
// Server.Handler() with the default options (every request traced, query
// statistics on). The request and recorder are reused, so allocs/op is
// the server's own per-hit cost.
func BenchmarkServerCiteHit(b *testing.B) {
	srv := New(gtopdbSystem(b, 2000), Options{})
	h := srv.Handler()
	body := newReplayBody([]byte(`{"query": "` + hotQuery + `"}`))
	req := httptest.NewRequest(http.MethodPost, "/cite", body)
	rec := httptest.NewRecorder()
	serve := func() {
		body.rewind()
		rec.Body.Reset()
		h.ServeHTTP(rec, req)
	}
	serve() // the miss fills the cache
	serve()
	if rec.Code != http.StatusOK || !bytes.Contains(rec.Body.Bytes(), []byte(`"cache": "hit"`)) {
		b.Fatalf("warm-up did not hit: status %d\n%s", rec.Code, rec.Body.Bytes())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		serve()
	}
}
