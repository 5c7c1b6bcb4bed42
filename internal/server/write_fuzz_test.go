package server

import (
	"encoding/json"
	"maps"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/spec"
)

// FuzzWriteHandlers posts arbitrary bodies to /ingest and /commit.
// Whatever the input: no panic and no 500, every reply is JSON with
// Content-Type application/json, and a rejected write changes nothing —
// neither the system version nor any relation's size.
func FuzzWriteHandlers(f *testing.F) {
	for _, body := range []string{
		`{"relation":"Family","insert":[[501,"Trailing","T"]]}`,
		`{"batches":[{"relation":"Family","insert":[[77,"Amylin","A1"],[78,"Ghrelin","G1"]]},{"relation":"Family","delete":[[78,"Ghrelin","G1"],[999,"None","X"]]}]}`,
		`{"relation":"Family","delete":[[999,"None","X"]]}`,
		`{"relation":"FamilyIntro","insert":[[11,"1st"]]}`,
		`{"relation":"Nope","insert":[[1]]}`,
		`{"relation":"Family","insert":[[1,"x"]]}`,
		`{"relation":"Family","insert":[["str","x","y"]]}`,
		`{"relation":"Family","insert":[[null,"x","y"]]}`,
		`{"relation":"Family","insert":[[1,"a","b"]],"batches":[{"relation":"Family"}]}`,
		`{}`,
		`{"batches":[{"relation":"Family"}]}`,
		`{"relation":"Family","insert":[[501,"Trailing","T"]]}}`,
	} {
		f.Add(false, body)
	}
	for _, body := range []string{`{"message":"fuzz"}`, `{}`, `{"message":1}`, `{"message":"x"} {}`} {
		f.Add(true, body)
	}

	raw, err := os.ReadFile(filepath.Join("..", "..", "testdata", "paper.dcs"))
	if err != nil {
		f.Fatal(err)
	}
	sys, err := spec.Load(string(raw))
	if err != nil {
		f.Fatal(err)
	}
	sys.Commit("base")
	h := New(sys, Options{}).Handler()
	f.Fuzz(func(t *testing.T, commit bool, body string) {
		path := "/ingest"
		if commit {
			path = "/commit"
		}
		version, sizes := sys.Version(), relationSizes(sys)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		if rec.Code == http.StatusInternalServerError {
			t.Fatalf("500 for %s body %q: %s", path, body, rec.Body.Bytes())
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Fatalf("Content-Type %q for %s body %q", ct, path, body)
		}
		if !json.Valid(rec.Body.Bytes()) {
			t.Fatalf("reply is not JSON for %s body %q:\n%s", path, body, rec.Body.Bytes())
		}
		if rec.Code == http.StatusOK {
			return
		}
		if v := sys.Version(); v != version {
			t.Fatalf("rejected %s (%d) moved the version %d -> %d: body %q", path, rec.Code, version, v, body)
		}
		if now := relationSizes(sys); !maps.Equal(now, sizes) {
			t.Fatalf("rejected %s (%d) changed relation sizes %v -> %v: body %q", path, rec.Code, sizes, now, body)
		}
	})
}

// relationSizes maps every head relation of sys to its tuple count.
func relationSizes(sys *core.System) map[string]int {
	db := sys.Database()
	out := make(map[string]int)
	for _, name := range db.Schema().Names() {
		out[name] = db.Relation(name).Len()
	}
	return out
}
