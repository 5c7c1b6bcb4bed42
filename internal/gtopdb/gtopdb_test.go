package gtopdb

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/cq"
	"repro/internal/eval"
	"repro/internal/storage"
	"repro/internal/value"
)

func TestGenerateDeterministic(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Families = 30
	a := Generate(cfg)
	b := Generate(cfg)
	for _, rel := range a.Schema().Names() {
		at, bt := a.Relation(rel).SortedTuples(), b.Relation(rel).SortedTuples()
		if len(at) != len(bt) {
			t.Fatalf("%s: %d vs %d tuples across runs", rel, len(at), len(bt))
		}
		for i := range at {
			if !at[i].Equal(bt[i]) {
				t.Fatalf("%s row %d differs: %v vs %v", rel, i, at[i], bt[i])
			}
		}
	}
	cfg2 := cfg
	cfg2.Seed = 99
	c := Generate(cfg2)
	if c.Size() == a.Size() && sameRelation(a.Relation("Committee"), c.Relation("Committee")) {
		t.Error("different seeds produced identical databases")
	}
}

// TestGenerateGolden pins the generated instance at three scales: a
// SHA-256 over every relation's name, length and rows in scan order. Row
// order is pinned as well as content, because the citation engine serves
// an identity view from its base relation only when the relation's rows
// ascend.
func TestGenerateGolden(t *testing.T) {
	for _, c := range []struct {
		families int
		want     string
	}{
		{100, "7c023bf826d98a71d7b41431812dcd519e32eeb8fedd86b913dbc5c01c393af5"},
		{300, "2a0712d62b9d6d5b5b91bed7e83c2d51256d0b15e01ea924fb24740d5e372844"},
		{2000, "2a4ae55d3346a96dcdfecf9d1a26c6abafeae4117fc4960994706d2b4fd771eb"},
	} {
		cfg := DefaultConfig()
		cfg.Families = c.families
		db := Generate(cfg)
		h := sha256.New()
		var buf []byte
		for _, name := range db.Schema().Names() {
			rel := db.Relation(name)
			buf = fmt.Appendf(buf[:0], "%s\x00%d\n", name, rel.Len())
			rel.Scan(func(tp storage.Tuple) bool {
				buf = append(tp.AppendKey(buf), '\n')
				return true
			})
			h.Write(buf)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != c.want {
			t.Errorf("%d families: digest %s, want %s", c.families, got, c.want)
		}
	}
}

func sameRelation(a, b *storage.Relation) bool {
	if a.Len() != b.Len() {
		return false
	}
	same := true
	a.Scan(func(tp storage.Tuple) bool {
		if !b.Contains(tp) {
			same = false
			return false
		}
		return true
	})
	return same
}

func TestGenerateCardinalitiesAndKeys(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Families = 50
	db := Generate(cfg)
	if got := db.Relation("Family").Len(); got != 50 {
		t.Errorf("families %d, want 50", got)
	}
	if got := db.Relation("FamilyIntro").Len(); got != 50 {
		t.Errorf("intros %d, want 50", got)
	}
	if db.Relation("Committee").Len() == 0 || db.Relation("Target").Len() == 0 {
		t.Error("committee/target empty")
	}
	// FID is a key: distinct count equals cardinality.
	fam := db.Relation("Family")
	if fam.DistinctCount(0) != fam.Len() {
		t.Error("FID not unique")
	}
	// Referential integrity: every Committee FID exists in Family.
	famIDs := map[value.Value]bool{}
	fam.Scan(func(tp storage.Tuple) bool {
		famIDs[tp[0]] = true
		return true
	})
	db.Relation("Committee").Scan(func(tp storage.Tuple) bool {
		if !famIDs[tp[0]] {
			t.Errorf("dangling committee FID %v", tp[0])
			return false
		}
		return true
	})
}

func TestDuplicateNamesGenerated(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Families = 200
	cfg.DuplicateNameRate = 0.5
	db := Generate(cfg)
	fam := db.Relation("Family")
	if fam.DistinctCount(1) >= fam.Len() {
		t.Error("no duplicate family names despite high duplicate rate")
	}
}

func TestGeneratedDataJoins(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Families = 20
	db := Generate(cfg)
	rows, err := eval.Eval(db, cq.MustParse(
		"Q(FName, TName, CName) :- Family(FID, FName, D), Target(TID, FID, TName, Ty), Contributor(TID, CName)"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Error("three-way join over generated data is empty")
	}
}

func TestEagleIGenerator(t *testing.T) {
	cfg := DefaultEagleIConfig()
	cfg.Resources = 50
	db := GenerateEagleI(cfg)
	if db.Relation("Resource").Len() != 50 {
		t.Errorf("resources %d", db.Relation("Resource").Len())
	}
	if db.Relation("Provider").Len() != 50 {
		t.Errorf("providers %d", db.Relation("Provider").Len())
	}
	// Every provider lab resolves to an institution.
	rows, err := eval.Eval(db, cq.MustParse(
		"Q(RID, Inst) :- Provider(RID, Lab), Institution(Lab, Inst)"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 50 {
		t.Errorf("provider-institution join has %d rows, want 50", len(rows))
	}
	// Classes come from the known set.
	db.Relation("Resource").Scan(func(tp storage.Tuple) bool {
		ok := false
		for _, c := range resourceClasses {
			if tp[1].Str() == c {
				ok = true
			}
		}
		if !ok {
			t.Errorf("unknown class %s", tp[1])
			return false
		}
		return true
	})
}

func TestDrugBankGenerator(t *testing.T) {
	cfg := DefaultDrugBankConfig()
	cfg.Drugs = 40
	db := GenerateDrugBank(cfg)
	if db.Relation("Drug").Len() != 40 {
		t.Errorf("drugs %d", db.Relation("Drug").Len())
	}
	// Accession numbers unique.
	if db.Relation("Drug").DistinctCount(1) != 40 {
		t.Error("accessions not unique")
	}
	// Interactions reference existing drugs.
	rows, err := eval.Eval(db, cq.MustParse(
		"Q(A1, A2) :- Interaction(D1, D2, E), Drug(D1, A1, N1, C1), Drug(D2, A2, N2, C2)"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Error("no resolvable interactions")
	}
}
