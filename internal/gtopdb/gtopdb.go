// Package gtopdb generates synthetic curated-database instances modeled on
// the three systems the paper discusses: the IUPHAR/BPS Guide to
// Pharmacology (GtoPdb — the paper's running example), eagle-i, and
// DrugBank. The generators are deterministic (seeded) and parameterized by
// scale, so experiments can sweep database sizes while preserving the
// schema and key structure the citation machinery depends on.
//
// The GtoPdb generator reproduces the paper's exact §2 schema —
// Family(FID, FName, Desc), Committee(FID, PName), FamilyIntro(FID, Text) —
// extended with the Target and Contributor relations that the real
// database's citation pages draw on.
package gtopdb

import (
	"fmt"
	"math/rand"

	"repro/internal/schema"
	"repro/internal/storage"
	"repro/internal/value"
)

// Config parameterizes the GtoPdb generator.
type Config struct {
	// Families is the number of Family tuples.
	Families int
	// MembersPerFamily is the mean committee size per family.
	MembersPerFamily int
	// TargetsPerFamily is the mean number of drug targets per family.
	TargetsPerFamily int
	// DuplicateNameRate in [0,1) is the fraction of families sharing a
	// name with another family — the paper's "two families share the
	// name 'Calcitonin'" situation that produces multiple bindings.
	DuplicateNameRate float64
	// Seed makes generation deterministic.
	Seed int64
}

// DefaultConfig returns a small but non-trivial instance.
func DefaultConfig() Config {
	return Config{
		Families:          100,
		MembersPerFamily:  3,
		TargetsPerFamily:  4,
		DuplicateNameRate: 0.1,
		Seed:              1,
	}
}

// Schema returns the extended GtoPdb schema.
func Schema() *schema.Schema {
	s := schema.New()
	s.MustAdd(schema.MustRelation("Family", []schema.Attribute{
		{Name: "FID", Kind: value.KindInt},
		{Name: "FName", Kind: value.KindString},
		{Name: "Desc", Kind: value.KindString},
	}, "FID"))
	s.MustAdd(schema.MustRelation("Committee", []schema.Attribute{
		{Name: "FID", Kind: value.KindInt},
		{Name: "PName", Kind: value.KindString},
	}))
	s.MustAdd(schema.MustRelation("FamilyIntro", []schema.Attribute{
		{Name: "FID", Kind: value.KindInt},
		{Name: "Text", Kind: value.KindString},
	}, "FID"))
	s.MustAdd(schema.MustRelation("Target", []schema.Attribute{
		{Name: "TID", Kind: value.KindInt},
		{Name: "FID", Kind: value.KindInt},
		{Name: "TName", Kind: value.KindString},
		{Name: "Type", Kind: value.KindString},
	}, "TID"))
	s.MustAdd(schema.MustRelation("Contributor", []schema.Attribute{
		{Name: "TID", Kind: value.KindInt},
		{Name: "CName", Kind: value.KindString},
	}))
	return s
}

var (
	firstNames = []string{
		"Alice", "Bob", "Carol", "David", "Eve", "Frank", "Grace", "Heidi",
		"Ivan", "Judy", "Mallory", "Niaj", "Olivia", "Peggy", "Rupert",
		"Sybil", "Trent", "Victor", "Walter", "Yolanda",
	}
	lastNames = []string{
		"Smith", "Jones", "Garcia", "Chen", "Kumar", "Okafor", "Rossi",
		"Novak", "Haddad", "Tanaka", "Kowalski", "Andersson", "Silva",
		"Moreau", "Petrov", "Nguyen", "Kim", "Lopez", "Mbeki", "Eriksson",
	}
	familyStems = []string{
		"Calcitonin", "Adenosine", "Adrenoceptor", "Angiotensin",
		"Bradykinin", "Calcium", "Cannabinoid", "Chemokine", "Dopamine",
		"Endothelin", "GABA", "Galanin", "Ghrelin", "Glucagon", "Glutamate",
		"Glycine", "Histamine", "Melatonin", "Neurotensin", "Opioid",
		"Orexin", "Oxytocin", "Serotonin", "Somatostatin", "Vasopressin",
	}
	targetTypes = []string{"GPCR", "Ion channel", "Enzyme", "Transporter", "NHR"}
)

func personName(rng *rand.Rand) string {
	return firstNames[rng.Intn(len(firstNames))] + " " + lastNames[rng.Intn(len(lastNames))]
}

// Generate produces a database instance per the config. Each relation's
// tuples are collected first and loaded in one batch that adopts them, in
// generation order.
func Generate(cfg Config) *storage.Database {
	rng := rand.New(rand.NewSource(cfg.Seed))
	families := make([]storage.Tuple, 0, cfg.Families)
	intros := make([]storage.Tuple, 0, cfg.Families)
	var committees, targets, contributors []storage.Tuple

	tid := 0
	for fid := 1; fid <= cfg.Families; fid++ {
		var name string
		if fid > 1 && rng.Float64() < cfg.DuplicateNameRate {
			// Reuse an earlier family's stem to create name collisions.
			name = familyStems[rng.Intn(len(familyStems))] + " receptors"
		} else {
			name = fmt.Sprintf("%s receptors %d", familyStems[rng.Intn(len(familyStems))], fid)
		}
		families = append(families, storage.Tuple{value.Int(int64(fid)), value.String(name),
			value.String(fmt.Sprintf("Family %d: %s signalling components", fid, name))})
		intros = append(intros, storage.Tuple{value.Int(int64(fid)),
			value.String(fmt.Sprintf("Introduction to family %d, curated overview.", fid))})
		members := 1 + rng.Intn(2*cfg.MembersPerFamily)
		seen := map[string]bool{}
		for m := 0; m < members; m++ {
			p := personName(rng)
			if seen[p] {
				continue
			}
			seen[p] = true
			committees = append(committees, storage.Tuple{value.Int(int64(fid)), value.String(p)})
		}
		nt := 1 + rng.Intn(2*cfg.TargetsPerFamily)
		for k := 0; k < nt; k++ {
			tid++
			targets = append(targets, storage.Tuple{value.Int(int64(tid)), value.Int(int64(fid)),
				value.String(fmt.Sprintf("%s target %d", name, k+1)),
				value.String(targetTypes[rng.Intn(len(targetTypes))])})
			ncs := 1 + rng.Intn(3)
			cs := map[string]bool{}
			for c := 0; c < ncs; c++ {
				p := personName(rng)
				if cs[p] {
					continue
				}
				cs[p] = true
				contributors = append(contributors, storage.Tuple{value.Int(int64(tid)), value.String(p)})
			}
		}
	}
	db := storage.NewDatabase(Schema())
	for _, load := range []struct {
		rel    string
		tuples []storage.Tuple
	}{
		{"Family", families},
		{"Committee", committees},
		{"FamilyIntro", intros},
		{"Target", targets},
		{"Contributor", contributors},
	} {
		if _, err := db.Relation(load.rel).InsertOwned(load.tuples); err != nil {
			panic(err)
		}
	}
	return db
}
