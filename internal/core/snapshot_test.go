package core

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/citation"
	"repro/internal/format"
	"repro/internal/storage"
	"repro/internal/value"
)

// TestWritesDoNotWaitForHeadCites: a head cite holds the engine lock only
// while it takes its snapshot, so journaled writes, a commit and a policy
// change all return while it is still generating, and the cite then
// returns the citation of the snapshot it started on.
func TestWritesDoNotWaitForHeadCites(t *testing.T) {
	sys := paperSystem(t)
	sys.Commit("v1")
	entered := make(chan struct{})
	release := make(chan struct{})
	unblock := sync.OnceFunc(func() { close(release) })
	defer unblock()
	var block sync.Once
	sys.Registry().View("V3").Fn = func(v *citation.View, params []citation.ParamBinding, rows map[string][]storage.Tuple) format.Record {
		block.Do(func() {
			close(entered)
			<-release
		})
		return citation.DefaultFunction(v, params, rows)
	}

	type outcome struct {
		c   *Citation
		err error
	}
	cited := make(chan outcome, 1)
	go func() {
		c, err := sys.Cite(paperQ)
		cited <- outcome{c, err}
	}()
	<-entered

	wrote := make(chan error, 1)
	go func() {
		wrote <- func() error {
			for _, tup := range []storage.Tuple{{value.Int(11), value.String("Bob")}, {value.Int(12), value.String("Dan")}} {
				if _, err := sys.Insert("Committee", []storage.Tuple{tup}); err != nil {
					return err
				}
			}
			if _, _, err := sys.CommitVersioned("v2"); err != nil {
				return err
			}
			return sys.SetPolicyNamed("minsize")
		}()
	}()
	select {
	case err := <-wrote:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("writes waited for an in-flight head cite")
	}
	unblock()
	got := <-cited
	if got.err != nil {
		t.Fatal(got.err)
	}
	want, err := sys.CiteContext(context.Background(), paperQ, AtVersion(1))
	if err != nil {
		t.Fatal(err)
	}
	if got.c.Text() != want.Text() {
		t.Errorf("cite begun before the writes returned\n%s\nwant the citation of the snapshot it started on\n%s", got.c.Text(), want.Text())
	}
	now, err := sys.Cite(paperQ)
	if err != nil {
		t.Fatal(err)
	}
	if now.Text() == want.Text() {
		t.Error("the writes did not change the citation — test assumptions broken")
	}
}

// TestDirectWriteVisibleToNextCite: the next head cite after a direct
// Database() write reads it, with no Commit in between, even when the
// caches are warm.
func TestDirectWriteVisibleToNextCite(t *testing.T) {
	sys := paperSystem(t)
	if _, err := sys.Cite(paperQ); err != nil {
		t.Fatal(err)
	}
	db := sys.Database()
	if err := db.Insert("Family", value.Int(13), value.String("Galanin"), value.String("G1")); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("FamilyIntro", value.Int(13), value.String("3rd")); err != nil {
		t.Fatal(err)
	}
	c, err := sys.Cite(paperQ)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(c.Result.Tuples); got != 2 {
		t.Errorf("cite after a direct write has %d tuples, want 2", got)
	}
}
