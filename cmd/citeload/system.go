package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/format"
	"repro/internal/gtopdb"
	"repro/internal/server"
	"repro/internal/storage"
	"repro/internal/value"
)

const gtopdbTitle = "IUPHAR/BPS Guide to PHARMACOLOGY"

// served is one set-up system behind its loopback listener.
type served struct {
	sys *core.System
	srv *server.Server
	ts  *httptest.Server
	dir string // data directory of a durable system, else ""
}

// buildSystem generates the workload's GtoPdb instance (the generator's
// default seed, so every run serves the same data), registers the view
// set of examples/gtopdb and commits the workload's versions. The store
// clock is synthetic, so a second system built the same way pins
// byte-identical timestamps.
func buildSystem(w workload) (*core.System, error) {
	cfg := gtopdb.DefaultConfig()
	cfg.Families = w.Families
	sys := core.NewSystemFromDatabase(gtopdb.Generate(cfg))
	var mu sync.Mutex
	tick := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	sys.Store().SetClock(func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		tick = tick.Add(time.Second)
		return tick
	})
	views := []struct {
		src    string
		static format.Record
		spec   core.CitationSpec
	}{
		{"lambda FID. FamilyView(FID, FName, Desc) :- Family(FID, FName, Desc)",
			format.NewRecord(format.FieldDatabase, gtopdbTitle),
			core.CitationSpec{Query: "lambda FID. CFam(FID, PName) :- Committee(FID, PName)",
				Fields: []string{format.FieldIdentifier, format.FieldAuthor}}},
		{"FamilyAll(FID, FName, Desc) :- Family(FID, FName, Desc)", nil,
			core.CitationSpec{Query: "CAll(D) :- D = '" + gtopdbTitle + "'", Fields: []string{format.FieldDatabase}}},
		{"IntroView(FID, Text) :- FamilyIntro(FID, Text)", nil,
			core.CitationSpec{Query: "CIntro(D) :- D = '" + gtopdbTitle + "'", Fields: []string{format.FieldDatabase}}},
		{"lambda TID. TargetView(TID, FID, TName, Type) :- Target(TID, FID, TName, Type)",
			format.NewRecord(format.FieldDatabase, gtopdbTitle),
			core.CitationSpec{Query: "lambda TID. CTgt(TID, CName) :- Contributor(TID, CName)",
				Fields: []string{format.FieldIdentifier, format.FieldAuthor}}},
	}
	for _, v := range views {
		if err := sys.DefineView(v.src, v.static, v.spec); err != nil {
			return nil, fmt.Errorf("define view: %w", err)
		}
	}
	sys.Commit("release 1")
	// Each later version adds one Family tuple, so every snapshot differs.
	for v := 2; v <= w.Versions; v++ {
		fid := int64(w.Families + v)
		t := storage.Tuple{value.Int(fid), value.String(fmt.Sprintf("Family added in release %d", v)), value.String("added")}
		if _, err := sys.Insert("Family", []storage.Tuple{t}); err != nil {
			return nil, fmt.Errorf("release %d: %w", v, err)
		}
		sys.Commit(fmt.Sprintf("release %d", v))
	}
	return sys, nil
}

// setUp builds the workload's system, attaches durability when the
// workload asks for it, and serves it with production defaults (plus
// opts) on a loopback listener. The returned duration runs from the
// first call into the program until /healthz answers.
func setUp(w workload, tmp string, opts server.Options, wrap func(http.Handler) http.Handler) (*served, time.Duration, error) {
	var dir string
	if w.Durable {
		d, err := os.MkdirTemp(tmp, "citeload-"+w.Name+"-")
		if err != nil {
			return nil, 0, err
		}
		dir = d
	}
	start := time.Now()
	sys, err := buildSystem(w)
	if err != nil {
		return nil, 0, err
	}
	if w.Durable {
		if err := sys.EnableDurability(dir, core.DurableOptions{}); err != nil {
			return nil, 0, err
		}
	}
	srv := server.New(sys, opts)
	var h http.Handler = srv.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	s := &served{sys: sys, srv: srv, ts: httptest.NewServer(h), dir: dir}
	resp, err := s.ts.Client().Get(s.ts.URL + "/healthz")
	if err != nil {
		s.close()
		return nil, 0, err
	}
	resp.Body.Close()
	took := time.Since(start)
	if resp.StatusCode != http.StatusOK {
		s.close()
		return nil, 0, fmt.Errorf("healthz: status %d", resp.StatusCode)
	}
	return s, took, nil
}

// close stops the listener (waiting for in-flight requests), drains the
// server's detached computations and detaches the commit log.
func (s *served) close() error {
	s.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		return err
	}
	return s.sys.CloseDurability()
}

// remove closes s and deletes its data directory.
func (s *served) remove() error {
	err := s.close()
	if s.dir != "" {
		if rerr := os.RemoveAll(s.dir); err == nil {
			err = rerr
		}
	}
	return err
}
