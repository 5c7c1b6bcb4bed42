package core

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/fixity"
	"repro/internal/format"
	"repro/internal/schema"
	"repro/internal/storage"
	"repro/internal/value"
)

// floatSystem is a durable system over R(A int, B float) in a fresh
// directory, its store clock ticking from 2020-01-02T03:04:05+01:00.
func floatSystem(t *testing.T, opts DurableOptions) (*System, string) {
	t.Helper()
	s := schema.New()
	s.MustAdd(schema.MustRelation("R", []schema.Attribute{
		{Name: "A", Kind: value.KindInt},
		{Name: "B", Kind: value.KindFloat},
	}))
	sys := NewSystem(s)
	tick := time.Date(2020, 1, 2, 3, 4, 5, 0, time.FixedZone("UTC+1", 3600))
	sys.Store().SetClock(func() time.Time {
		now := tick
		tick = tick.Add(time.Hour + time.Nanosecond)
		return now
	})
	dir := filepath.Join(t.TempDir(), "data")
	if err := sys.EnableDurability(dir, opts); err != nil {
		t.Fatal(err)
	}
	return sys, dir
}

// floatView defines V<n>(A) :- R(A, <constant>), written as the caller
// gives it, with a static record and a constant citation query.
func floatView(sys *System, n int, constant string) error {
	return sys.DefineView(fmt.Sprintf("lambda A. V%d(A) :- R(A, %s)", n, constant),
		format.NewRecord(format.FieldDatabase, "R"),
		CitationSpec{Query: fmt.Sprintf("C%d(D) :- D = 'view %d'", n, n),
			Fields: []string{format.FieldNote}})
}

// citeTexts cites each query at the head and at every committed version
// and lists each citation's Text(), or its error.
func citeTexts(sys *System, queries []string) []string {
	var out []string
	for v := fixity.Version(0); v <= sys.Store().Latest(); v++ {
		for _, q := range queries {
			var opts []CiteOption
			if v > 0 {
				opts = append(opts, AtVersion(v))
			}
			c, err := sys.CiteContext(context.Background(), q, opts...)
			if err != nil {
				out = append(out, fmt.Sprintf("v%d %s: error %v", v, q, err))
				continue
			}
			out = append(out, fmt.Sprintf("v%d %s: %s", v, q, c.Text()))
		}
	}
	return out
}

// historyLines renders a version history with each timestamp as the
// wire encodes it, zone included.
func historyLines(h []fixity.VersionInfo) []string {
	var out []string
	for _, info := range h {
		ts, _ := json.Marshal(info.Timestamp)
		out = append(out, fmt.Sprintf("%d %s %d %q", info.Version, ts, info.Tuples, info.Message))
	}
	return out
}

// viewLines lists each registered view's text and the kinds of its body
// constants, which its text alone does not show (Float(1) renders 1).
func viewLines(sys *System) []string {
	var out []string
	for _, v := range sys.Registry().Views() {
		line := v.Query.String()
		for _, a := range v.Query.Body {
			for _, term := range a.Terms {
				if !term.IsVar {
					line += fmt.Sprintf(" [%s %v]", term.Const.Kind(), term.Const)
				}
			}
		}
		out = append(out, line)
	}
	return out
}

// TestDurableViewConstantsKeepTheirKind: a view's body constants keep
// their kind across recovery. With views over R(A, 1.0) and R(A, -0.0),
// the queries with those constants cite alike live, after Open from the
// log tail, and after a checkpoint and Open: the define-view entry holds
// the text the caller wrote, not a rendering (1, -0) that parses back as
// an Int and leaves the query without a rewriting.
func TestDurableViewConstantsKeepTheirKind(t *testing.T) {
	sys, dir := floatSystem(t, DurableOptions{})
	defer sys.CloseDurability()
	for i, c := range []string{"1.0", "-0.0"} {
		if err := floatView(sys, i+1, c); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sys.Insert("R", []storage.Tuple{
		{value.Int(1), value.Float(1)},
		{value.Int(2), value.Float(math.Copysign(0, -1))},
		{value.Int(3), value.Float(0.5)},
	}); err != nil {
		t.Fatal(err)
	}
	sys.Commit("v1")
	queries := []string{"Q(A) :- R(A, 1.0)", "Q(A) :- R(A, -0.0)"}
	var live []string
	for _, q := range queries {
		c, err := sys.Cite(q)
		if err != nil {
			t.Fatalf("live cite of %s: %v", q, err)
		}
		live = append(live, c.Text())
	}
	recovered := func(from string) {
		t.Helper()
		re, err := Open(dir, DurableOptions{ReadOnly: true})
		if err != nil {
			t.Fatal(err)
		}
		for i, q := range queries {
			c, err := re.Cite(q)
			if err != nil {
				t.Errorf("cite of %s after Open from the %s: %v", q, from, err)
				continue
			}
			if got := c.Text(); got != live[i] {
				t.Errorf("cite of %s after Open from the %s:\n got: %s\nlive: %s", q, from, got, live[i])
			}
		}
	}
	recovered("log tail")
	if err := sys.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	recovered("checkpoint")
}

// TestCommitStampsStoreClockInUTC: every commit stamps the store clock's
// instant in UTC, in memory as when journaled, so SetClock holds on a
// durable system and a recovered history and its pins render as the
// live ones did. The clock here runs at +01:00.
func TestCommitStampsStoreClockInUTC(t *testing.T) {
	s := schema.New()
	s.MustAdd(schema.MustRelation("R", []schema.Attribute{
		{Name: "A", Kind: value.KindInt},
		{Name: "B", Kind: value.KindFloat},
	}))
	sys := NewSystem(s)
	zone := time.FixedZone("UTC+1", 3600)
	stamps := []time.Time{
		time.Date(2020, 1, 2, 3, 4, 5, 0, zone),
		time.Date(2020, 1, 2, 4, 4, 5, 6, zone),
	}
	next := 0
	sys.Store().SetClock(func() time.Time {
		next++
		return stamps[next-1]
	})
	if err := sys.DefineView("V(A, B) :- R(A, B)", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Insert("R", []storage.Tuple{{value.Int(1), value.Float(1)}}); err != nil {
		t.Fatal(err)
	}
	sys.Commit("in memory")
	dir := filepath.Join(t.TempDir(), "data")
	if err := sys.EnableDurability(dir, DurableOptions{}); err != nil {
		t.Fatal(err)
	}
	defer sys.CloseDurability()
	if _, err := sys.Insert("R", []storage.Tuple{{value.Int(2), value.Float(0.5)}}); err != nil {
		t.Fatal(err)
	}
	sys.Commit("durable")

	want := []string{
		`1 "2020-01-02T02:04:05Z" 1 "in memory"`,
		`2 "2020-01-02T03:04:05.000000006Z" 2 "durable"`,
	}
	if got := historyLines(sys.Store().History()); !slices.Equal(got, want) {
		t.Fatalf("live history %q, want %q", got, want)
	}
	pins := func(sys *System) []string {
		var out []string
		for v := fixity.Version(1); v <= sys.Store().Latest(); v++ {
			c, err := sys.CiteContext(context.Background(), "Q(A) :- R(A, B)", AtVersion(v))
			if err != nil {
				t.Fatal(err)
			}
			ts, _ := json.Marshal(c.Pin.Timestamp)
			out = append(out, string(ts))
		}
		return out
	}
	livePins := pins(sys)
	if want := []string{`"2020-01-02T02:04:05Z"`, `"2020-01-02T03:04:05.000000006Z"`}; !slices.Equal(livePins, want) {
		t.Fatalf("live pin timestamps %q, want %q", livePins, want)
	}
	re, err := Open(dir, DurableOptions{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := historyLines(re.Store().History()); !slices.Equal(got, want) {
		t.Errorf("recovered history %q, want %q", got, want)
	}
	if got := pins(re); !slices.Equal(got, livePins) {
		t.Errorf("recovered pin timestamps %q, live %q", got, livePins)
	}
}

// TestConcurrentWritesRecover: inserts, commits and view definitions
// from several goroutines at once, with a checkpoint every two commits,
// recover to the views, history and head the live system holds. Each
// write journals and applies under one acquisition of the system lock,
// so the journal's order is the order the live system applied.
func TestConcurrentWritesRecover(t *testing.T) {
	sys, dir := floatSystem(t, DurableOptions{CheckpointEvery: 2})
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 10 {
				tu := storage.Tuple{value.Int(int64(100*g + i)), value.Float(recoveryFloats[i%len(recoveryFloats)])}
				if _, err := sys.Insert("R", []storage.Tuple{tu}); err != nil {
					t.Error(err)
					return
				}
				if i%3 == 0 {
					if _, _, err := sys.CommitVersioned(fmt.Sprintf("writer %d op %d", g, i)); err != nil {
						t.Error(err)
						return
					}
				}
				if i == 5 {
					if err := floatView(sys, 1+g, recoveryConstants[g]); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if err := sys.CloseDurability(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir, DurableOptions{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if got, live := viewLines(re), viewLines(sys); !slices.Equal(got, live) {
		t.Errorf("recovered views %q, live %q", got, live)
	}
	if got, live := historyLines(re.Store().History()), historyLines(sys.Store().History()); !slices.Equal(got, live) {
		t.Errorf("recovered history %q, live %q", got, live)
	}
	if got, live := fixity.DatabaseDigest(re.Database()), fixity.DatabaseDigest(sys.Database()); got != live {
		t.Errorf("recovered head digest %s, live %s", got, live)
	}
}

// recoveryConstants are the view-body constants FuzzRecoveryMatchesLive
// draws from: an integral float, negative zero, the int of the same
// value as the first, a fraction and a string.
var recoveryConstants = []string{"1.0", "-0.0", "1", "0.5", "'x'"}

// recoveryQueries are the queries FuzzRecoveryMatchesLive cites at the
// head and at every version.
var recoveryQueries = []string{
	"Q(A) :- R(A, 1.0)",
	"Q(A) :- R(A, -0.0)",
	"Q(A) :- R(A, 1)",
	"Q(A) :- R(A, 0.5)",
	"Q(A) :- R(A, 'x')",
}

// recoveryFloats are the B values the fuzzer's batches hold.
var recoveryFloats = []float64{1, math.Copysign(0, -1), 0, 0.5}

// FuzzRecoveryMatchesLive drives a durable system over R(A int, B float)
// with one op per input byte, up to 48: the low three bits pick an insert or
// delete batch of 1–3 tuples, a commit under a store clock at +01:00, a
// checkpoint, a policy change or a view definition whose constant comes
// from recoveryConstants, and the high five bits pick the op's argument.
// Open(dir, ReadOnly) must then give the same views (texts and constant
// kinds), the same History() and, at the head and at every version, the
// same Text() (or error) for every recoveryQueries member.
func FuzzRecoveryMatchesLive(f *testing.F) {
	f.Add([]byte{5, 13, 0, 8, 2, 3, 21, 1, 4, 2})
	f.Add([]byte{29, 37, 16, 24, 2, 12, 3, 9, 2, 5, 0, 3, 17, 2})
	f.Add([]byte{3, 6, 2, 45, 53, 0, 3, 7, 41, 2, 1, 3, 2})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 48 {
			ops = ops[:48]
		}
		sys, dir := floatSystem(t, DurableOptions{})
		defer sys.CloseDurability()
		views := 0
		for i, b := range ops {
			arg := int(b >> 3)
			switch b & 7 {
			case 0, 1, 6:
				batch := make([]storage.Tuple, 1+arg%3)
				for j := range batch {
					batch[j] = storage.Tuple{value.Int(int64(1 + (arg+j)%3)), value.Float(recoveryFloats[(arg/3+j)%4])}
				}
				write := sys.Insert
				if b&7 == 1 {
					write = sys.Delete
				}
				if _, err := write("R", batch); err != nil {
					t.Fatalf("op %d: %v", i, err)
				}
			case 2, 7:
				if _, _, err := sys.CommitVersioned(fmt.Sprintf("op %d", i)); err != nil {
					t.Fatalf("op %d: %v", i, err)
				}
			case 3:
				if err := sys.Checkpoint(); err != nil {
					t.Fatalf("op %d: %v", i, err)
				}
			case 4:
				if err := sys.SetPolicyNamed([]string{"minsize", "maxcoverage", "all"}[arg%3]); err != nil {
					t.Fatalf("op %d: %v", i, err)
				}
			case 5:
				views++
				if err := floatView(sys, views, recoveryConstants[arg%len(recoveryConstants)]); err != nil {
					t.Fatalf("op %d: %v", i, err)
				}
			}
		}
		re, err := Open(dir, DurableOptions{ReadOnly: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			what      string
			live, got []string
		}{
			{"views", viewLines(sys), viewLines(re)},
			{"history", historyLines(sys.Store().History()), historyLines(re.Store().History())},
			{"citations", citeTexts(sys, recoveryQueries), citeTexts(re, recoveryQueries)},
		} {
			if !slices.Equal(c.got, c.live) {
				t.Fatalf("recovered %s differ:\n got: %q\nlive: %q", c.what, c.got, c.live)
			}
		}
	})
}
