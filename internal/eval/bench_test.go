package eval

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/cq"
	"repro/internal/gtopdb"
	"repro/internal/schema"
	"repro/internal/semiring"
	"repro/internal/storage"
	"repro/internal/value"
)

// BenchmarkMaterialize is a versioned cite's per-view path: materialize a
// 2,000-row single-atom view over a frozen gtopdb snapshot, freeze it as
// the view cache does, then compile a constant probe over the frozen
// view, which builds the view's block and encodes the probe column to
// read its distinct count.
func BenchmarkMaterialize(b *testing.B) {
	cfg := gtopdb.DefaultConfig()
	cfg.Families = 2000
	snap := gtopdb.Generate(cfg).Snapshot()
	view := cq.MustParse("FamilyView(FID, FName, Desc) :- Family(FID, FName, Desc)")
	probe := cq.MustParse("Q(FName, Desc) :- FamilyView(42, FName, Desc)")
	rs := schema.MustRelation("FamilyView", snap.Schema().Relation("Family").Attributes)
	// A frozen relation builds its columnar block on first use and keeps
	// it; build it here so even a one-iteration run measures the steady
	// per-cite path.
	snap.Relation("Family").ColumnarBlock()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rel := storage.NewRelation(rs)
		if err := Materialize(snap, view, rel); err != nil {
			b.Fatal(err)
		}
		if rel.Len() != cfg.Families {
			b.Fatalf("view holds %d rows, want %d", rel.Len(), cfg.Families)
		}
		if _, err := Compile(Relations{"FamilyView": rel.Snapshot()}, probe); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWalk is one warm plan walk on the E8 join over 2,000 families:
// row reads the mutable database through its indexed row steps, and
// columnar reads its snapshot through columnar blocks (a frozen relation
// has no row index, so its row path would scan). count is the
// allocation-free consumer under a context that can never be canceled;
// annotated sums a count annotation per output tuple under a cancelable
// context, so its walk also polls.
func BenchmarkWalk(b *testing.B) {
	cfg := gtopdb.DefaultConfig()
	cfg.Families = 2000
	db := gtopdb.Generate(cfg)
	q := cq.MustParse("Q(FName, PName) :- Family(FID, FName, Desc), Committee(FID, PName)")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	one := func(string, storage.Tuple) int { return 1 }
	for _, path := range []struct {
		name string
		inst *storage.Database
	}{{"row", db}, {"columnar", db.Snapshot()}} {
		b.Run(path.name, func(b *testing.B) {
			p, err := Compile(path.inst, q)
			if err != nil {
				b.Fatal(err)
			}
			args := Args(nil, q)
			want := p.CountBindings(path.inst, args) // warm the pooled run state
			b.Run("count", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if n := p.CountBindings(path.inst, args); n != want {
						b.Fatalf("count = %d, want %d", n, want)
					}
				}
			})
			b.Run("annotated", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := RunAnnotatedCtx(ctx, p, path.inst, args, semiring.Natural{}, one); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

// BenchmarkPreparedPlan is a cold cite's plan cost for one serving-shape
// rewriting, the join of two identity views read as their frozen base
// relations over a 2,000-family GtoPdb snapshot: compile compiles the
// rewriting of every query and runs it, as a generator without a plan
// cache did on each cite; bind runs one plan, prepared before the
// timer, with each query's constants. Every op cites a fresh family and
// checks that the answer is that family's introduction.
func BenchmarkPreparedPlan(b *testing.B) {
	const families = 2000
	cfg := gtopdb.DefaultConfig()
	cfg.Families = families
	snap := gtopdb.Generate(cfg).Snapshot()
	inst := Relations{"FamilyView": snap.Relation("Family"), "IntroView": snap.Relation("FamilyIntro")}
	const shape = "rw(FName, Text) :- FamilyView(%[1]d, FName, Desc), IntroView(%[1]d, Text)"
	one := func(string, storage.Tuple) int { return 1 }
	type op struct {
		q    *cq.Query
		args []value.Value
		want string
	}
	ops := func(n int) []op {
		out := make([]op, n)
		for i := range out {
			fid := 1 + i%families
			q := cq.MustParse(fmt.Sprintf(shape, fid))
			out[i] = op{q, Args(nil, q), fmt.Sprintf("Introduction to family %d, curated overview.", fid)}
		}
		return out
	}
	check := func(b *testing.B, o op, out []Annotated[int], err error) {
		if err != nil {
			b.Fatal(err)
		}
		if len(out) != 1 || out[0].Tuple[1].Str() != o.want || out[0].Annotation != 1 {
			b.Fatalf("%s: answer %v", o.q, out)
		}
	}
	ctx := context.Background()
	b.Run("compile", func(b *testing.B) {
		ops := ops(b.N)
		b.ReportAllocs()
		b.ResetTimer()
		for _, o := range ops {
			p, err := Compile(inst, o.q)
			if err != nil {
				b.Fatal(err)
			}
			out, err := RunAnnotatedCtx(ctx, p, inst, o.args, semiring.Natural{}, one)
			check(b, o, out, err)
		}
	})
	b.Run("bind", func(b *testing.B) {
		ops := ops(b.N)
		p, err := Compile(inst, cq.MustParse(fmt.Sprintf(shape, families+1)))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for _, o := range ops {
			out, err := RunAnnotatedCtx(ctx, p, inst, o.args, semiring.Natural{}, one)
			check(b, o, out, err)
		}
	})
}
