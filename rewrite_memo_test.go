package datacitation

// End-to-end checks of the generator's rewriting memo (DESIGN.md §2):
// a warm system, whose memo serves every shape after its first cite,
// answers exactly like a freshly built one, and a view definition is
// seen by every cite that starts after it returns, including versioned
// cites, which run outside the engine lock.

import (
	"context"
	"encoding/json"
	"fmt"
	"regexp"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/format"
	"repro/internal/rewrite"
	"repro/internal/server"
)

// memoSystem is the GtoPdb serving system over 60 families with the
// citeload view set plus a class view pinning Target.Type to 'GPCR', so
// some query constants equal a view constant. Version 1 is committed.
func memoSystem(t testing.TB) *core.System {
	t.Helper()
	sys, err := experiments.GtoPdbSystem(60)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []struct {
		src  string
		spec core.CitationSpec
	}{
		{"lambda TID. TargetView(TID, FID, TName, Type) :- Target(TID, FID, TName, Type)",
			core.CitationSpec{Query: "lambda TID. CTgt(TID, CName) :- Contributor(TID, CName)",
				Fields: []string{format.FieldIdentifier, format.FieldAuthor}}},
		{"GPCRTarget(TID, FID, TName) :- Target(TID, FID, TName, 'GPCR')",
			core.CitationSpec{Query: "CGPCR(D) :- D = 'GPCR targets'", Fields: []string{format.FieldNote}}},
	} {
		if err := sys.DefineView(v.src, format.NewRecord(format.FieldDatabase, experiments.GtoPdbTitle), v.spec); err != nil {
			t.Fatal(err)
		}
	}
	sys.Commit("memo base")
	return sys
}

// retrieved matches the pin's commit timestamp in a citation's text.
var retrieved = regexp.MustCompile(`retrieved=[^ \]]*`)

// memoWire is what a client sees of a citation: the record, the text,
// the read-set and the pin, without the pin's timestamp (in the pin and
// in the text), which records when each system committed. A failed cite
// is its error.
func memoWire(t *testing.T, sys *core.System, query string) string {
	t.Helper()
	c, err := sys.Cite(query)
	if err != nil {
		return "error: " + err.Error()
	}
	r := server.NewCiteResult(query, c)
	if r.Pin != nil {
		r.Pin.Timestamp = time.Time{}
	}
	r.Text = retrieved.ReplaceAllString(r.Text, "retrieved=")
	out, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestRewriteMemoWarmMatchesFresh: every query, cited on one warm
// system in turn and on a system built fresh for it, yields the same
// record, text, pin and reads. The queries repeat shapes with distinct
// constants — view-constant hits and misses, a constant repeated within
// the query, and the lookalikes 1, 1.0 and '1' — so the warm system
// answers most of them from memo hits.
func TestRewriteMemoWarmMatchesFresh(t *testing.T) {
	shapes := []string{
		"Q(FName, Desc) :- Family(%[1]s, FName, Desc)",
		"Q(FName, Text) :- Family(%[1]s, FName, Desc), FamilyIntro(%[1]s, Text)",
		"Q(FName, Text) :- Family(%[1]s, FName, Desc), FamilyIntro(%[2]s, Text)",
		"Q(TName, FID) :- Target(TID, FID, TName, %[2]s)",
		"Q(TName, Type) :- Target(%[1]s, FID, TName, Type)",
		"Q(FName, TName) :- Target(%[1]s, FID, TName, Type), Family(FID, FName, Desc)",
	}
	bindings := [][2]string{
		{"7", "'GPCR'"}, {"12", "'Enzyme'"}, {"12", "12"}, {"1", "'1'"},
		{"1.0", "1"}, {"'1'", "'GPCR'"}, {"59", "'Ion channel'"}, {"3", "7"},
	}
	warm := memoSystem(t)
	for _, shape := range shapes {
		for _, b := range bindings {
			q := fmt.Sprintf(shape, b[0], b[1])
			if got, want := memoWire(t, warm, q), memoWire(t, memoSystem(t), q); got != want {
				t.Fatalf("%s:\nwarm  %s\nfresh %s", q, got, want)
			}
		}
	}
	if st := warm.Generator().RewriteMemoStats(); st.Hits < int64(len(shapes)*len(bindings)/2) {
		t.Fatalf("memo stats %+v: too few hits to exercise it", st)
	}
}

// TestRewriteMemoSeesDefineView: versioned cites of one shape with
// distinct constants run concurrently while a view that adds a
// rewriting lands. Every cite that starts after DefineView returns must
// rewrite over the new view set. Run it under -race.
func TestRewriteMemoSeesDefineView(t *testing.T) {
	const citers, phase = 4, 40
	sys := memoSystem(t)
	var defined atomic.Bool
	var before, after atomic.Int64
	warm, settled := make(chan struct{}), make(chan struct{})
	stop := make(chan struct{})
	errs := make(chan error, citers)
	var wg sync.WaitGroup
	for w := range citers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				started := defined.Load()
				q := fmt.Sprintf("Q(FName, Desc) :- Family(%d, FName, Desc)", 1+(w*7+i)%60)
				c, err := sys.CiteContext(context.Background(), q, core.AtVersion(1), core.WithoutFixityPin())
				if err != nil {
					errs <- err
					return
				}
				uses := slices.ContainsFunc(c.Result.Rewritings, func(rw *rewrite.Rewriting) bool {
					return rw.ViewAtoms[0].ViewName == "FamilyCopy"
				})
				switch {
				case started && !uses:
					errs <- fmt.Errorf("%s started after DefineView returned but rewrote over the old views: %v", q, c.Result.Rewritings)
					return
				case started && after.Add(1) == phase:
					close(settled)
				case !started && before.Add(1) == phase:
					close(warm)
				}
			}
		}()
	}
	await := func(ch chan struct{}) error {
		select {
		case <-ch:
			return nil
		case err := <-errs:
			return err
		}
	}
	err := await(warm)
	if err == nil {
		err = sys.DefineView("FamilyCopy(FID, FName, Desc) :- Family(FID, FName, Desc)", nil,
			core.CitationSpec{Query: "CCopy(D) :- D = 'copy'", Fields: []string{format.FieldNote}})
		defined.Store(true)
	}
	if err == nil {
		err = await(settled)
	}
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if st := sys.Generator().RewriteMemoStats(); st.Hits == 0 {
		t.Fatalf("memo stats %+v: no hits", st)
	}
}
