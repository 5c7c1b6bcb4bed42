package datacitation

// Benchmarks, one per experiment in EXPERIMENTS.md (the paper has no
// measured tables; each experiment operationalizes a prose claim — see
// DESIGN.md §4 for the index). Run with:
//
//	go test -bench=. -benchmem
//
// cmd/citebench prints the corresponding parameter-sweep tables.

import (
	"fmt"
	"testing"

	"repro/internal/advisor"
	"repro/internal/cq"
	"repro/internal/eval"
	"repro/internal/evolution"
	"repro/internal/experiments"
	"repro/internal/gtopdb"
	"repro/internal/policy"
	"repro/internal/rewrite"
	"repro/internal/semiring"
	"repro/internal/storage"
	"repro/internal/workload"
)

// BenchmarkE0PaperExample measures the full pipeline on the paper's §2
// instance: rewrite, annotate, select with +R, resolve, format.
func BenchmarkE0PaperExample(b *testing.B) {
	sys, err := experiments.PaperSystem()
	if err != nil {
		b.Fatal(err)
	}
	q := experiments.PaperQuery()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Generator().Cite(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE1RewritingSearch compares exhaustive citation generation
// (evaluate all copies^joins rewritings) with cost-pruned generation.
func BenchmarkE1RewritingSearch(b *testing.B) {
	for _, mode := range []string{"exhaustive", "pruned"} {
		b.Run(mode, func(b *testing.B) {
			cs, err := experiments.NewChainSetup(3, 3, 50)
			if err != nil {
				b.Fatal(err)
			}
			gen := cs.Sys.Generator()
			gen.CostPruned = mode == "pruned"
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := gen.Cite(cs.Query); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE2CitationSize measures citation generation under the two +R
// policies whose output sizes the paper contrasts.
func BenchmarkE2CitationSize(b *testing.B) {
	for _, pol := range []string{"minsize", "maxcoverage"} {
		b.Run(pol, func(b *testing.B) {
			sys, err := experiments.GtoPdbSystem(1000)
			if err != nil {
				b.Fatal(err)
			}
			gen := sys.Generator()
			if pol == "maxcoverage" {
				p := policy.Default()
				p.AltR = policy.MaxCoverage
				gen.SetPolicy(p)
			}
			q := cq.MustParse("Q(FID, FName) :- Family(FID, FName, Desc)")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := gen.Cite(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE3GenerationLatency measures warm end-to-end generation at
// several database sizes.
func BenchmarkE3GenerationLatency(b *testing.B) {
	for _, families := range []int{100, 1000} {
		b.Run(fmt.Sprintf("families-%d", families), func(b *testing.B) {
			sys, err := experiments.GtoPdbSystem(families)
			if err != nil {
				b.Fatal(err)
			}
			gen := sys.Generator()
			q := cq.MustParse("Q(FName, Text) :- Family(FID, FName, Desc), FamilyIntro(FID, Text)")
			if _, err := gen.Cite(q); err != nil { // warm the caches
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := gen.Cite(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE4Incremental compares per-delta incremental maintenance with
// full view recomputation.
func BenchmarkE4Incremental(b *testing.B) {
	const families = 1000
	b.Run("incremental", func(b *testing.B) {
		sys, err := experiments.GtoPdbSystem(families)
		if err != nil {
			b.Fatal(err)
		}
		m, err := evolution.NewMaintainer(sys)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			fid := int64(1000000 + i)
			d := evolution.Insert("Family", storage.Tuple{
				Int(fid), String(fmt.Sprintf("bench family %d", i)), String("bench"),
			})
			if err := m.Apply(d); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("recompute", func(b *testing.B) {
		sys, err := experiments.GtoPdbSystem(families)
		if err != nil {
			b.Fatal(err)
		}
		m, err := evolution.NewMaintainer(sys)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			fid := int64(1000000 + i)
			d := evolution.Insert("Family", storage.Tuple{
				Int(fid), String(fmt.Sprintf("bench family %d", i)), String("bench"),
			})
			if err := m.RecomputeAll([]evolution.Delta{d}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE5MiniConVsBucket measures rewriting enumeration alone for both
// algorithms.
func BenchmarkE5MiniConVsBucket(b *testing.B) {
	cs, err := experiments.NewChainSetup(3, 4, 10)
	if err != nil {
		b.Fatal(err)
	}
	for _, m := range []rewrite.Method{rewrite.MethodMiniCon, rewrite.MethodBucket} {
		b.Run(m.String(), func(b *testing.B) {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := rewrite.Rewrite(cs.Query, cs.Views, rewrite.Options{Method: m}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE6Fixity measures commit, as-of execution, and digest
// verification on a versioned store.
func BenchmarkE6Fixity(b *testing.B) {
	sys, err := experiments.GtoPdbSystem(500)
	if err != nil {
		b.Fatal(err)
	}
	store := sys.Store()
	q := cq.MustParse("Q(FName) :- Family(FID, FName, Desc)")
	sys.Commit("base")
	b.Run("commit", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sys.Commit(fmt.Sprintf("bench %d", i))
		}
	})
	b.Run("asof", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := store.Execute(q, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
	_, pin, err := store.ExecuteLatest(q)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("verify", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ok, err := store.Verify(pin)
			if err != nil || !ok {
				b.Fatalf("verify failed: ok=%v err=%v", ok, err)
			}
		}
	})
}

// BenchmarkE7Coverage measures workload-coverage analysis over the
// extended GtoPdb schema.
func BenchmarkE7Coverage(b *testing.B) {
	sys, err := experiments.GtoPdbSystemWithViews(100, []string{
		"FamilyV(FID, FName, Desc) :- Family(FID, FName, Desc)",
		"IntroV(FID, Text) :- FamilyIntro(FID, Text)",
		"CommitteeV(FID, PName) :- Committee(FID, PName)",
	})
	if err != nil {
		b.Fatal(err)
	}
	qs, err := workload.Generate(gtopdb.Schema(), workload.Config{
		Queries: 50, MinAtoms: 1, MaxAtoms: 3, ProjectRate: 0.6, Shape: workload.Chain, Seed: 7,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Registry().AnalyzeCoverage(qs, rewrite.MethodMiniCon); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE9ViewAdvisor measures greedy view recommendation over a random
// workload.
func BenchmarkE9ViewAdvisor(b *testing.B) {
	s := gtopdb.Schema()
	wl, err := workload.Generate(s, workload.Config{
		Queries: 30, MinAtoms: 1, MaxAtoms: 2, ProjectRate: 0.7, Seed: 21,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := advisor.Recommend(s, wl, advisor.Options{MaxViews: 4}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE10ConcurrentCite measures citation-serving throughput at
// 1/4/16 concurrent citers draining a shared iteration budget over the
// gtopdb-style workload — the concurrent-engine counterpart of E3. The
// per-op time is the wall-clock per citation; throughput is its inverse.
// cmd/citebench reports the same sweep (citebench -only E10 -json).
func BenchmarkE10ConcurrentCite(b *testing.B) {
	sys, err := experiments.GtoPdbSystem(300)
	if err != nil {
		b.Fatal(err)
	}
	sys.Commit("bench base")
	for _, q := range experiments.E10Workload() { // warm the shared caches
		if _, err := sys.Cite(q); err != nil {
			b.Fatal(err)
		}
	}
	for _, citers := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("citers-%d", citers), func(b *testing.B) {
			b.ResetTimer()
			if err := experiments.DrainCites(sys, citers, b.N); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkE11PlanReuse contrasts compile-per-call annotated evaluation
// with a warm compiled plan on the gtopdb two-way join — the planning
// overhead a cite pays when its rewriting's shape has no prepared plan
// over the snapshot's content yet (every later cite of the shape runs
// the cached plan), over a frozen snapshot as a cite reads it.
// cmd/citebench reports the same comparison with an allocs/op column
// (citebench -only E11).
func BenchmarkE11PlanReuse(b *testing.B) {
	cfg := gtopdb.DefaultConfig()
	cfg.Families = 1000
	db := gtopdb.Generate(cfg).Snapshot()
	q := cq.MustParse("Q(FName, Text) :- Family(FID, FName, Desc), FamilyIntro(FID, Text)")
	sr := semiring.Natural{}
	count := func(string, storage.Tuple) int { return 1 }
	b.Run("compile-per-call", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := eval.EvalAnnotated[int](db, q, sr, count); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm-plan", func(b *testing.B) {
		plan, err := eval.Compile(db, q)
		if err != nil {
			b.Fatal(err)
		}
		args := eval.Args(nil, q)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			eval.RunAnnotated[int](plan, db, args, sr, count)
		}
	})
}

// BenchmarkE8AnnotationOverhead compares plain evaluation with annotated
// evaluation across semirings on a two-way join over a frozen snapshot.
func BenchmarkE8AnnotationOverhead(b *testing.B) {
	cfg := gtopdb.DefaultConfig()
	cfg.Families = 500
	db := gtopdb.Generate(cfg).Snapshot()
	q := cq.MustParse("Q(FName, PName) :- Family(FID, FName, Desc), Committee(FID, PName)")
	b.Run("plain", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := eval.Eval(db, q); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("bool", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, err := eval.EvalAnnotated[bool](db, q, semiring.Bool{},
				func(string, storage.Tuple) bool { return true })
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("count", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, err := eval.EvalAnnotated[int](db, q, semiring.Natural{},
				func(string, storage.Tuple) int { return 1 })
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("why", func(b *testing.B) {
		sr := semiring.Why{}
		for i := 0; i < b.N; i++ {
			_, err := eval.EvalAnnotated[semiring.WhySet](db, q, sr,
				func(pred string, tp storage.Tuple) semiring.WhySet {
					return sr.Singleton(pred + ":" + tp.Key())
				})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("poly", func(b *testing.B) {
		sr := semiring.Polynomial{}
		for i := 0; i < b.N; i++ {
			_, err := eval.EvalAnnotated[semiring.Poly](db, q, sr,
				func(pred string, tp storage.Tuple) semiring.Poly {
					return sr.Token(pred + ":" + tp.Key())
				})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}
