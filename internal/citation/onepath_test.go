package citation

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/cq"
	"repro/internal/gtopdb"
)

// TestCiteAllocationsIndependentOfGOMAXPROCS pins that a cite walks one
// path whatever the number of cores: the same distinct serving-shape
// queries, cited over one 2,000-family snapshot by a fresh generator at
// GOMAXPROCS 1, 2 and 4, allocate the same number of objects per cite,
// within 1. A cite that forked, or chose its storage path by the core
// count, would allocate differently at 1 than at 2 or 4. Mallocs are read
// from runtime.MemStats because testing.AllocsPerRun pins GOMAXPROCS to
// 1.
func TestCiteAllocationsIndependentOfGOMAXPROCS(t *testing.T) {
	const families, cites = 2000, 400
	cfg := gtopdb.DefaultConfig()
	cfg.Families = families
	snap := gtopdb.Generate(cfg).Snapshot()
	queries := make([]*cq.Query, cites)
	for i := range queries {
		queries[i] = cq.MustParse(fmt.Sprintf(servingShapes[i%len(servingShapes)], 1+i/len(servingShapes)))
	}
	citeAll := func(g *Generator) {
		for _, q := range queries {
			if _, err := g.CiteContext(context.Background(), q, Request{}); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Build the snapshot's blocks and encode the columns the plans read
	// before measuring, so every setting finds them built.
	citeAll(NewGenerator(servingRegistry(snap.Schema()), snap))

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	perCite := make(map[int]float64)
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		g := NewGenerator(servingRegistry(snap.Schema()), snap)
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		citeAll(g)
		runtime.ReadMemStats(&after)
		n := float64(after.Mallocs-before.Mallocs) / cites
		perCite[procs] = n
		lo, hi = min(lo, n), max(hi, n)
	}
	if hi-lo > 1 {
		t.Errorf("allocations per cite depend on GOMAXPROCS: %v", perCite)
	}
}
