package core

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/cq"
	"repro/internal/fixity"
	"repro/internal/format"
	"repro/internal/gtopdb"
	"repro/internal/storage"
	"repro/internal/trace"
	"repro/internal/value"
)

// servingShapes are the four cite shapes of the serving benchmark's cold
// traffic, each with one constant.
var servingShapes = []string{
	"Q(FName, Desc) :- Family(%[1]d, FName, Desc)",
	"Q(FName, Text) :- Family(%[1]d, FName, Desc), FamilyIntro(%[1]d, Text)",
	"Q(TName, Type) :- Target(%[1]d, FID, TName, Type)",
	"Q(FName, TName) :- Target(%[1]d, FID, TName, Type), Family(FID, FName, Desc)",
}

// servingSystem is a GtoPdb system of the given size with the serving
// benchmark's four views, committed once.
func servingSystem(t *testing.T, families int) *System {
	t.Helper()
	cfg := gtopdb.DefaultConfig()
	cfg.Families = families
	sys := NewSystemFromDatabase(gtopdb.Generate(cfg))
	static := format.NewRecord(format.FieldDatabase, title)
	for _, v := range []struct {
		view   string
		static format.Record
		cite   CitationSpec
	}{
		{"lambda FID. FamilyView(FID, FName, Desc) :- Family(FID, FName, Desc)", static,
			CitationSpec{Query: "lambda FID. CFam(FID, PName) :- Committee(FID, PName)", Fields: []string{format.FieldIdentifier, format.FieldAuthor}}},
		{"FamilyAll(FID, FName, Desc) :- Family(FID, FName, Desc)", nil,
			CitationSpec{Query: "CAll(D) :- D = 'GtoPdb'", Fields: []string{format.FieldDatabase}}},
		{"IntroView(FID, Text) :- FamilyIntro(FID, Text)", nil,
			CitationSpec{Query: "CIntro(D) :- D = 'GtoPdb'", Fields: []string{format.FieldDatabase}}},
		{"lambda TID. TargetView(TID, FID, TName, Type) :- Target(TID, FID, TName, Type)", static,
			CitationSpec{Query: "lambda TID. CTgt(TID, CName) :- Contributor(TID, CName)", Fields: []string{format.FieldIdentifier, format.FieldAuthor}}},
	} {
		if err := sys.DefineView(v.view, v.static, v.cite); err != nil {
			t.Fatal(err)
		}
	}
	sys.Commit("v1")
	return sys
}

// tracedCite cites src under a fresh trace with the options and returns
// the citation and the cache attribute of its fixity span ("" when it
// opened none).
func tracedCite(t *testing.T, sys *System, src string, opts ...CiteOption) (*Citation, string) {
	t.Helper()
	tr := trace.New("cite")
	c, err := sys.CiteContext(trace.NewContext(context.Background(), tr), src, opts...)
	if err != nil {
		t.Fatalf("%s: %v", src, err)
	}
	tr.Finish()
	var cache string
	spans := 0
	tr.Root().Visit(func(sp *trace.Span) {
		if sp.Name() == "fixity" {
			spans++
			v, _ := sp.Attr("cache")
			cache, _ = v.(string)
		}
	})
	if spans > 1 {
		t.Fatalf("%s: %d fixity spans", src, spans)
	}
	return c, cache
}

// checkPin requires c's pin to equal, field for field, the pin
// Store.Execute gives q at version v.
func checkPin(t *testing.T, sys *System, src string, c *Citation, v fixity.Version) {
	t.Helper()
	if c.Pin == nil {
		t.Fatalf("%s: no pin", src)
	}
	_, want, err := sys.Store().Execute(cq.MustParse(src), v)
	if err != nil {
		t.Fatal(err)
	}
	if *c.Pin != want {
		t.Fatalf("%s: pin %+v\nStore.Execute at version %d: %+v", src, *c.Pin, v, want)
	}
}

// TestPinPlansAreReused: once one cite of each serving shape has
// compiled its pin's plan, head cites of fresh constants run that plan:
// each of 200 opens one fixity span, with cache: "hit", and every pin
// equals Store.Execute's.
func TestPinPlansAreReused(t *testing.T) {
	const families = 300
	sys := servingSystem(t, families)
	for _, shape := range servingShapes {
		src := fmt.Sprintf(shape, families)
		c, cache := tracedCite(t, sys, src)
		if cache != "miss" {
			t.Fatalf("warm-up %s: fixity cache %q, want miss", src, cache)
		}
		checkPin(t, sys, src, c, 1)
	}
	answered := 0
	for i := range 200 {
		src := fmt.Sprintf(servingShapes[i%len(servingShapes)], 1+i/len(servingShapes))
		c, cache := tracedCite(t, sys, src)
		if cache != "hit" {
			t.Fatalf("cite %d, %s: fixity cache %q, want hit", i, src, cache)
		}
		checkPin(t, sys, src, c, 1)
		if c.Pin.Tuples > 0 {
			answered++
		}
	}
	if answered < 150 {
		t.Fatalf("only %d of 200 pins hold an answer", answered)
	}
}

// TestPinsMatchExecute: a pin equals Store.Execute's at its version for
// cites of an older version, and for head cites after an uncommitted
// write, whose pinned version does not hold the head's content — there
// the citation reads the head's new family and the pin must not.
func TestPinsMatchExecute(t *testing.T) {
	const families = 100
	sys := servingSystem(t, families)
	fam := func(fid int64, name string) storage.Tuple {
		return storage.Tuple{value.Int(fid), value.String(name), value.String("written")}
	}
	if _, err := sys.Insert("Family", []storage.Tuple{fam(families+1, "Committed")}); err != nil {
		t.Fatal(err)
	}
	sys.Commit("v2")
	if _, err := sys.Insert("Family", []storage.Tuple{fam(families+2, "Uncommitted")}); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Delete("Family", []storage.Tuple{sys.Database().Relation("Family").Tuples()[0]}); err != nil {
		t.Fatal(err)
	}
	for round := range 2 {
		for i, shape := range servingShapes {
			for _, id := range []int{1 + i, families, families + 1, families + 2} {
				src := fmt.Sprintf(shape, id)
				old, _ := tracedCite(t, sys, src, AtVersion(1))
				checkPin(t, sys, src, old, 1)
				head, _ := tracedCite(t, sys, src)
				checkPin(t, sys, src, head, 2)
				if round == 0 && i == 0 && id == families+2 && (len(head.Result.Tuples) != 1 || head.Pin.Tuples != 0) {
					t.Fatalf("%s: head answer %d tuples, pin %d; want the uncommitted family cited and not pinned",
						src, len(head.Result.Tuples), head.Pin.Tuples)
				}
			}
		}
	}
}

// TestConcurrentPins: head cites of every serving shape from several
// goroutines at once share the pin plans the cache holds, and every pin
// still equals Store.Execute's. Run it under -race.
func TestConcurrentPins(t *testing.T) {
	const families, workers, cites = 200, 8, 24
	sys := servingSystem(t, families)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range cites {
				src := fmt.Sprintf(servingShapes[(w+i)%len(servingShapes)], 1+(w*cites+i)%families)
				c, err := sys.Cite(src)
				if err != nil {
					t.Error(err)
					return
				}
				_, want, err := sys.Store().Execute(cq.MustParse(src), 1)
				if err != nil || c.Pin == nil || *c.Pin != want {
					t.Errorf("%s: pin %+v, Store.Execute %+v (%v)", src, c.Pin, want, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
