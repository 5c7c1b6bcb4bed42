package datacitation_test

// Cross-module integration tests: full lifecycle scenarios spanning spec
// loading, citation generation, fixity, evolution, and archiving.

import (
	"os"
	"strings"
	"testing"

	datacitation "repro"
	"repro/internal/evolution"
	"repro/internal/spec"
	"repro/internal/storage"
	"repro/internal/value"
)

// TestFullLifecycle walks the complete story a database owner lives
// through: load a spec file, commit a release, cite a query, archive the
// extended citation, evolve the data incrementally, commit again, and
// confirm the original pin still verifies while fresh citations reflect
// the new state.
func TestFullLifecycle(t *testing.T) {
	raw, err := os.ReadFile("testdata/paper.dcs")
	if err != nil {
		t.Fatal(err)
	}
	sys, err := spec.Load(string(raw))
	if err != nil {
		t.Fatal(err)
	}

	// Release 1.
	info := sys.Commit("release 1")
	if info.Version != 1 {
		t.Fatalf("version %d", info.Version)
	}
	const q = "Q(FName) :- Family(FID, FName, Desc), FamilyIntro(FID, Text)"
	cite1, err := sys.Cite(q)
	if err != nil {
		t.Fatal(err)
	}
	if cite1.Pin == nil {
		t.Fatal("no pin")
	}
	pin1 := *cite1.Pin
	if want := "(CV1(11)·CV3 + CV1(12)·CV3) +R (CV2·CV3)"; cite1.Result.Tuples[0].Expr().String() != want {
		t.Fatalf("expression %s", cite1.Result.Tuples[0].Expr())
	}

	// Archive the extended citation.
	store := datacitation.NewCiteStore()
	ref, compact := cite1.Archive(store)
	if !strings.Contains(compact, ref) {
		t.Fatalf("compact %q missing ref %q", compact, ref)
	}

	// Evolve: a new Amylin family arrives, curated by Dana. (A distinct
	// name, so the projected answer set — and therefore the digest —
	// actually changes.)
	m, err := evolution.NewMaintainer(sys)
	if err != nil {
		t.Fatal(err)
	}
	deltas := []evolution.Delta{
		evolution.Insert("Family", storage.Tuple{value.Int(13), value.String("Amylin"), value.String("A1")}),
		evolution.Insert("FamilyIntro", storage.Tuple{value.Int(13), value.String("3rd")}),
		evolution.Insert("Committee", storage.Tuple{value.Int(13), value.String("Dana")}),
	}
	if err := m.ApplyBatch(deltas); err != nil {
		t.Fatal(err)
	}
	sys.Commit("release 2")

	// The old pin still verifies against release 1.
	ok, err := sys.Store().Verify(pin1)
	if err != nil || !ok {
		t.Fatalf("release-1 pin broken after evolution: ok=%v err=%v", ok, err)
	}

	// A fresh citation sees the new family: max-coverage now credits Dana.
	if err := sys.SetPolicyNamed("maxcoverage"); err != nil {
		t.Fatal(err)
	}
	cite2, err := sys.Cite(q)
	if err != nil {
		t.Fatal(err)
	}
	authors := cite2.Result.Record[datacitation.FieldAuthor]
	found := false
	for _, a := range authors {
		if a == "Dana" {
			found = true
		}
	}
	if !found {
		t.Errorf("post-evolution citation missing Dana: %v", authors)
	}
	// The new pin differs from the old one (data changed).
	if cite2.Pin.Digest == pin1.Digest {
		t.Error("digests identical across releases with different data")
	}
	// Archiving the new citation yields a distinct reference; the store
	// holds both and can find the Dana-crediting one.
	ref2, _ := cite2.Archive(store)
	if ref2 == ref {
		t.Error("distinct citations share a reference")
	}
	if refs := store.Search(datacitation.FieldAuthor, "Dana"); len(refs) != 1 || refs[0] != ref2 {
		t.Errorf("search for Dana: %v", refs)
	}
}

// TestLifecycleCostPrunedAgreesAfterEvolution runs the pruned and
// exhaustive generators against the same evolved database and demands
// identical records — pruning must stay sound as statistics shift.
func TestLifecycleCostPrunedAgreesAfterEvolution(t *testing.T) {
	raw, err := os.ReadFile("testdata/paper.dcs")
	if err != nil {
		t.Fatal(err)
	}
	build := func() (interface {
		Cite(string) (*datacitation.Citation, error)
		Generator() *datacitation.Generator
		Database() *datacitation.Database
	}, error) {
		return spec.Load(string(raw))
	}
	sysA, err := build()
	if err != nil {
		t.Fatal(err)
	}
	sysB, err := build()
	if err != nil {
		t.Fatal(err)
	}
	// Grow both databases identically.
	for fid := int64(100); fid < 140; fid++ {
		for _, db := range []*datacitation.Database{sysA.Database(), sysB.Database()} {
			if err := db.Insert("Family", datacitation.Int(fid),
				datacitation.String("Grown"), datacitation.String("g")); err != nil {
				t.Fatal(err)
			}
			if err := db.Insert("FamilyIntro", datacitation.Int(fid),
				datacitation.String("gi")); err != nil {
				t.Fatal(err)
			}
		}
	}
	sysB.Generator().CostPruned = true
	const q = "Q(FName) :- Family(FID, FName, Desc), FamilyIntro(FID, Text)"
	a, err := sysA.Cite(q)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sysB.Cite(q)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Result.Record.Equal(b.Result.Record) {
		t.Errorf("pruned record %v differs from exhaustive %v", b.Result.Record, a.Result.Record)
	}
	if !b.Result.Stats.Pruned || b.Result.Stats.RewritingsEvaluated != 1 {
		t.Errorf("pruning stats %+v", b.Result.Stats)
	}
}
