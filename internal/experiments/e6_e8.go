package experiments

import (
	"fmt"

	"repro/internal/cq"
	"repro/internal/eval"
	"repro/internal/gtopdb"
	"repro/internal/rewrite"
	"repro/internal/semiring"
	"repro/internal/storage"
	"repro/internal/value"
	"repro/internal/workload"
)

// E6Fixity measures version-pinned execution: commit cost, as-of query
// latency across the version history, and digest verification. Claim (§3
// "fixity"): a citation should bring back the data as seen when cited,
// with versioning plus the query as the mechanism.
func E6Fixity() (*Table, error) {
	t := &Table{
		ID:     "E6",
		Title:  "fixity: versioned execution and verification",
		Claim:  "as-of execution and digest verification stay flat as the version count grows",
		Header: []string{"versions", "commit(ms)", "as-of v1(ms)", "as-of latest(ms)", "verify ok", "verify(ms)"},
	}
	q := cq.MustParse("Q(FName) :- Family(FID, FName, Desc)")
	for _, versions := range []int{10, 50, 200} {
		sys, err := GtoPdbSystem(500)
		if err != nil {
			return nil, err
		}
		store := sys.Store()
		var commitTotal, v1Time, latestTime, verifyTime int64
		var pinOK bool
		db := sys.Database()
		for vi := 0; vi < versions; vi++ {
			// Each version adds one family so snapshots differ.
			fid := int64(100000 + vi)
			if err := db.Insert("Family", value.Int(fid),
				value.String(fmt.Sprintf("Version family %d", vi)), value.String("v")); err != nil {
				return nil, err
			}
			d, err := timeIt(func() error {
				sys.Commit(fmt.Sprintf("v%d", vi+1))
				return nil
			})
			if err != nil {
				return nil, err
			}
			commitTotal += d.Nanoseconds()
		}
		dv1, err := timeIt(func() error {
			_, _, err := store.Execute(q, 1)
			return err
		})
		if err != nil {
			return nil, err
		}
		v1Time = dv1.Nanoseconds()
		var pin interface{ String() string }
		dlat, err := timeIt(func() error {
			_, p, err := store.ExecuteLatest(q)
			pin = p
			return err
		})
		if err != nil {
			return nil, err
		}
		latestTime = dlat.Nanoseconds()
		_, latestPin, err := store.ExecuteLatest(q)
		if err != nil {
			return nil, err
		}
		dver, err := timeIt(func() error {
			ok, err := store.Verify(latestPin)
			pinOK = ok
			return err
		})
		if err != nil {
			return nil, err
		}
		verifyTime = dver.Nanoseconds()
		_ = pin
		t.AddRow(fmt.Sprintf("%d", versions),
			fmt.Sprintf("%.2f", float64(commitTotal)/1e6/float64(versions)),
			fmt.Sprintf("%.2f", float64(v1Time)/1e6),
			fmt.Sprintf("%.2f", float64(latestTime)/1e6),
			fmt.Sprintf("%v", pinOK),
			fmt.Sprintf("%.2f", float64(verifyTime)/1e6))
	}
	return t, nil
}

// E7Coverage measures how view-set breadth affects workload coverage.
// Claim (§3 "defining citations"): the owner should pick views that
// "cover" the expected query workload; coverage grows with view breadth.
func E7Coverage() (*Table, error) {
	t := &Table{
		ID:     "E7",
		Title:  "workload coverage vs view-set breadth",
		Claim:  "coverage ratio grows monotonically as views are added",
		Header: []string{"view set", "views", "covered", "partial", "uncovered", "ratio"},
	}
	qs, err := workload.Generate(gtopdb.Schema(), workload.Config{
		Queries: 200, MinAtoms: 1, MaxAtoms: 3, ProjectRate: 0.6, Shape: workload.Chain, Seed: 7,
	})
	if err != nil {
		return nil, err
	}
	// Three nested view sets over the extended GtoPdb schema.
	sets := []struct {
		label string
		views []string
	}{
		{"family only", []string{
			"FamilyV(FID, FName, Desc) :- Family(FID, FName, Desc)",
		}},
		{"family+intro+committee", []string{
			"FamilyV(FID, FName, Desc) :- Family(FID, FName, Desc)",
			"IntroV(FID, Text) :- FamilyIntro(FID, Text)",
			"CommitteeV(FID, PName) :- Committee(FID, PName)",
		}},
		{"all relations", []string{
			"FamilyV(FID, FName, Desc) :- Family(FID, FName, Desc)",
			"IntroV(FID, Text) :- FamilyIntro(FID, Text)",
			"CommitteeV(FID, PName) :- Committee(FID, PName)",
			"TargetV(TID, FID, TName, Type) :- Target(TID, FID, TName, Type)",
			"ContributorV(TID, CName) :- Contributor(TID, CName)",
		}},
	}
	for _, set := range sets {
		sys, err := GtoPdbSystemWithViews(200, set.views)
		if err != nil {
			return nil, err
		}
		rep, err := sys.Registry().AnalyzeCoverage(qs, rewrite.MethodMiniCon)
		if err != nil {
			return nil, err
		}
		t.AddRow(set.label, fmt.Sprintf("%d", len(set.views)),
			fmt.Sprintf("%d", rep.Covered), fmt.Sprintf("%d", rep.Partial),
			fmt.Sprintf("%d", rep.Uncovered), fmt.Sprintf("%.2f", rep.CoverageRatio()))
	}
	return t, nil
}

// E8AnnotationOverhead compares plain set-semantics evaluation with
// semiring-annotated evaluation across semirings. Claim (§2): citations
// ride the provenance-semiring machinery; the overhead of carrying
// annotations is the price of citation generation. Both evaluate a frozen
// snapshot, the content a cite reads.
func E8AnnotationOverhead() (*Table, error) {
	t := &Table{
		ID:     "E8",
		Title:  "annotated vs plain evaluation",
		Claim:  "annotation overhead is bounded; richer semirings (why, polynomial) cost more than counting",
		Header: []string{"|Family|", "plain(ms)", "bool(ms)", "count(ms)", "why(ms)", "poly(ms)"},
	}
	q := cq.MustParse("Q(FName, PName) :- Family(FID, FName, Desc), Committee(FID, PName)")
	for _, families := range []int{500, 2000} {
		cfg := gtopdb.DefaultConfig()
		cfg.Families = families
		db := gtopdb.Generate(cfg).Snapshot()

		plain, err := timeIt(func() error {
			_, err := eval.Eval(db, q)
			return err
		})
		if err != nil {
			return nil, err
		}
		boolT, err := timeIt(func() error {
			_, err := eval.EvalAnnotated[bool](db, q, semiring.Bool{},
				func(string, storage.Tuple) bool { return true })
			return err
		})
		if err != nil {
			return nil, err
		}
		countT, err := timeIt(func() error {
			_, err := eval.EvalAnnotated[int](db, q, semiring.Natural{},
				func(string, storage.Tuple) int { return 1 })
			return err
		})
		if err != nil {
			return nil, err
		}
		whyT, err := timeIt(func() error {
			sr := semiring.Why{}
			_, err := eval.EvalAnnotated[semiring.WhySet](db, q, sr,
				func(pred string, tp storage.Tuple) semiring.WhySet {
					return sr.Singleton(pred + ":" + tp.Key())
				})
			return err
		})
		if err != nil {
			return nil, err
		}
		polyT, err := timeIt(func() error {
			sr := semiring.Polynomial{}
			_, err := eval.EvalAnnotated[semiring.Poly](db, q, sr,
				func(pred string, tp storage.Tuple) semiring.Poly {
					return sr.Token(pred + ":" + tp.Key())
				})
			return err
		})
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%d", families), ms(plain), ms(boolT), ms(countT), ms(whyT), ms(polyT))
	}
	return t, nil
}
