package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fixity"
	"repro/internal/format"
	"repro/internal/spec"
)

// referenceQueries are the queries the differential test cites. The
// fifth ranges over Committee alone, which no view covers until the
// test defines one.
var referenceQueries = []string{
	"Q(FName) :- Family(FID, FName, Desc), FamilyIntro(FID, Text)",
	"Q(Text) :- FamilyIntro(FID, Text)",
	"Q(FID, FName) :- Family(FID, FName, Desc)",
	"Q(Desc) :- Family(11, FName, Desc)",
	"Q(PName) :- Committee(FID, PName)",
	"Q(FID, Text) :- FamilyIntro(FID, Text), Family(FID, FName, Desc)",
}

// TestHandlerMatchesJournalReference drives a durable paper system
// through its handler with random write batches, commits, checkpoints,
// policy changes, one view definition and cites, and checks every cite
// reply against a reference with no cache history: the system recovered
// read-only from the checkpoint and commit log as they stand at that
// cite. Each reply's result must equal the reference citation byte for
// byte, except that a cached head citation may keep the older pin it
// was computed with (DESIGN.md §3): that pin must verify against the
// reference store at its own version, and everything but pin and text
// must still match.
func TestHandlerMatchesJournalReference(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "testdata", "paper.dcs"))
	if err != nil {
		t.Fatal(err)
	}
	const seeds, ops = 10, 300
	rewritable := 0
	for seed := uint64(1); seed <= seeds; seed++ {
		sys, err := spec.Load(string(raw))
		if err != nil {
			t.Fatal(err)
		}
		tick := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
		sys.Store().SetClock(func() time.Time {
			tick = tick.Add(time.Second)
			return tick
		})
		sys.Commit("base")
		dir := t.TempDir()
		if err := sys.EnableDurability(dir, core.DurableOptions{}); err != nil {
			t.Fatal(err)
		}
		h := New(sys, Options{}).Handler()
		serve := func(path, body string) *httptest.ResponseRecorder {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
			return rec
		}
		rng := rand.New(rand.NewPCG(seed, 0))
		defineAt := rng.IntN(ops)
		for op := 0; op < ops; op++ {
			where := fmt.Sprintf("seed %d op %d", seed, op)
			if op == defineAt {
				if err := sys.DefineView("lambda FID. VC(FID, PName) :- Committee(FID, PName)",
					format.NewRecord(format.FieldDatabase, "GtoPdb"),
					core.CitationSpec{
						Query:  "lambda FID. CVC(FID, PName) :- Committee(FID, PName)",
						Fields: []string{format.FieldIdentifier, format.FieldAuthor},
					}); err != nil {
					t.Fatalf("%s: define view: %v", where, err)
				}
			}
			switch r := rng.IntN(20); {
			case r < 8:
				body := randomIngest(rng)
				if rec := serve("/ingest", body); rec.Code != http.StatusOK {
					t.Fatalf("%s: ingest %s: %d %s", where, body, rec.Code, rec.Body)
				}
			case r < 10:
				if rec := serve("/commit", `{"message": "`+where+`"}`); rec.Code != http.StatusOK {
					t.Fatalf("%s: commit: %d %s", where, rec.Code, rec.Body)
				}
			case r < 11:
				if err := sys.SetPolicyNamed([]string{"minsize", "maxcoverage", "all"}[rng.IntN(3)]); err != nil {
					t.Fatalf("%s: set policy: %v", where, err)
				}
			case r < 12:
				if err := sys.Checkpoint(); err != nil {
					t.Fatalf("%s: checkpoint: %v", where, err)
				}
			default:
				q := referenceQueries[rng.IntN(len(referenceQueries))]
				var version fixity.Version
				if rng.IntN(3) == 0 {
					version = fixity.Version(1 + rng.IntN(int(sys.Store().Latest())))
				}
				if checkAgainstReference(t, where, dir, serve, q, version) && q == referenceQueries[4] {
					rewritable++
				}
			}
		}
		if err := sys.CloseDurability(); err != nil {
			t.Fatal(err)
		}
	}
	if rewritable == 0 {
		t.Error("no cite of the query the defined view makes rewritable succeeded")
	}
	t.Logf("%d cites of the query the defined view makes rewritable", rewritable)
}

// randomIngest is an /ingest body inserting or deleting a batch of 1–3
// tuples of one relation, over a small domain, so writes often repeat
// or undo each other.
func randomIngest(rng *rand.Rand) string {
	rel := []string{"Family", "FamilyIntro", "Committee"}[rng.IntN(3)]
	tuples := make([]string, 1+rng.IntN(3))
	for i := range tuples {
		fid := 11 + rng.IntN(4)
		switch rel {
		case "Family":
			tuples[i] = fmt.Sprintf(`[%d, %q, %q]`, fid, []string{"Calcitonin", "Galanin"}[rng.IntN(2)], []string{"C1", "C2"}[rng.IntN(2)])
		case "FamilyIntro":
			tuples[i] = fmt.Sprintf(`[%d, %q]`, fid, []string{"1st", "2nd"}[rng.IntN(2)])
		default:
			tuples[i] = fmt.Sprintf(`[%d, %q]`, fid, []string{"Alice", "Bob", "Carol"}[rng.IntN(3)])
		}
	}
	verb := "insert"
	if rng.IntN(2) == 0 {
		verb = "delete"
	}
	return fmt.Sprintf(`{"relation": %q, %q: [%s]}`, rel, verb, strings.Join(tuples, ", "))
}

// checkAgainstReference cites q at version (0 for the head) through
// serve and compares the reply with a citation by the system recovered
// read-only from dir. It reports whether the reply was a citation.
func checkAgainstReference(t *testing.T, where, dir string, serve func(path, body string) *httptest.ResponseRecorder, q string, version fixity.Version) bool {
	t.Helper()
	path := "/cite"
	opts := []core.CiteOption{core.WithParallelism(1)}
	if version > 0 {
		path += fmt.Sprintf("?version=%d", version)
		opts = append(opts, core.AtVersion(version))
	}
	body, _ := json.Marshal(citeRequest{Query: q})
	rec := serve(path, string(body))

	ref, err := core.Open(dir, core.DurableOptions{ReadOnly: true})
	if err != nil {
		t.Fatalf("%s: recover reference: %v", where, err)
	}
	want, refErr := ref.CiteContext(t.Context(), q, opts...)
	if refErr != nil {
		var got struct{ Error string }
		if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil || rec.Code != statusForError(refErr) || got.Error != refErr.Error() {
			t.Fatalf("%s: %s %q: reply %d %s, reference fails with %d %v", where, path, q, rec.Code, rec.Body, statusForError(refErr), refErr)
		}
		return false
	}
	if rec.Code != http.StatusOK {
		t.Fatalf("%s: %s %q: reply %d %s, reference cites it", where, path, q, rec.Code, rec.Body)
	}
	var reply citeResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &reply); err != nil || reply.Result == nil {
		t.Fatalf("%s: %s %q: reply without a result (%v): %s", where, path, q, err, rec.Body)
	}
	got := *reply.Result
	cache := got.Cache
	got.Cache = ""
	wantRes := NewCiteResult(q, want)
	gotJSON, _ := json.Marshal(got)
	wantJSON, _ := json.Marshal(wantRes)
	if bytes.Equal(gotJSON, wantJSON) {
		return true
	}
	if cache != "hit" || version != 0 || got.Pin == nil || wantRes.Pin == nil || got.Pin.Version >= wantRes.Pin.Version {
		t.Fatalf("%s: %s %q (%s) differs from the reference\ngot:  %s\nwant: %s", where, path, q, cache, gotJSON, wantJSON)
	}
	// A cached head citation keeps its pin: it must verify at its own
	// version, and the rest must match.
	pin := fixity.PinnedCitation{
		QueryText: got.Pin.Query,
		Version:   fixity.Version(got.Pin.Version),
		Timestamp: got.Pin.Timestamp,
		Digest:    got.Pin.SHA256,
		Tuples:    got.Pin.Tuples,
	}
	if ok, err := ref.Store().Verify(pin); err != nil || !ok {
		t.Fatalf("%s: %q: cached pin %+v does not verify against the reference (%v)", where, q, pin, err)
	}
	got.Pin, got.Text, wantRes.Pin, wantRes.Text = nil, "", nil, ""
	gotJSON, _ = json.Marshal(got)
	wantJSON, _ = json.Marshal(wantRes)
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Fatalf("%s: %q: cached citation differs from the reference beyond its pin\ngot:  %s\nwant: %s", where, q, gotJSON, wantJSON)
	}
	return true
}
