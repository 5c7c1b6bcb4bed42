package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"

	"repro/internal/gtopdb"
)

// workload is one named traffic mix. Sizes are the op counts for the
// nominal 10-second budget (-seconds 10); -seconds scales Ops and
// TracedOps linearly, so for a given -seconds every run does the same
// work and a faster program simply finishes sooner.
type workload struct {
	Name string
	// Families sizes the synthetic GtoPdb instance.
	Families int
	// Ops is the timed op count at -seconds 10, split into five windows.
	Ops int
	// Queries is the size of the distinct query set cites draw from; 0
	// means every cite is a distinct (shape, constant) key (cold).
	Queries int
	// Versions is the number of committed versions before serving; cites
	// then target ?version=v uniformly over them (history). 1 means a
	// single base commit and head cites.
	Versions int
	// TracedOps is the traced pass's op count at -seconds 10 (0 = Ops).
	TracedOps int
	// Durable serves from a journaled data directory (mixed).
	Durable bool
}

// The four workloads. Each stresses a different layer; their reasons are
// recorded beside them in BENCHMARK.json.
var workloads = []workload{
	// hot: 64 queries fit the 1,024-entry result cache, so after 64 fills
	// every cite is a hit and only the server layer works.
	{Name: "hot", Families: 2000, Ops: 160000, Queries: 64, Versions: 1, TracedOps: 50000},
	// cold: every cite is a distinct key, so the result, plan and branch
	// caches never hit and the engine does all the work.
	{Name: "cold", Families: 2000, Ops: 5000, Versions: 1},
	// history: 256 queries × 32 versions against a 1,024-entry result
	// cache and 8 version namespaces, so the caches fill and evict.
	{Name: "history", Families: 2000, Ops: 1400, Queries: 256, Versions: 32, TracedOps: 400},
	// mixed: reads beside journaled writes on a durable system.
	{Name: "mixed", Families: 300, Ops: 12000, Queries: 256, Versions: 1, TracedOps: 6000, Durable: true},
}

// The mixed workload's mix: per block of mixedBlock ops, one ingest of
// ingestBatch fresh tuples into each of three relations (7.5%) and one
// commit (2.5%); the rest are cites.
const (
	mixedBlock  = 40
	ingestBatch = 10
)

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// scaled returns w with its op counts sized for a budget of seconds.
func (w workload) scaled(seconds int) workload {
	scale := func(n int) int {
		n = int(math.Round(float64(n) * float64(seconds) / 10))
		return max(n, 5*windows)
	}
	if w.TracedOps == 0 {
		w.TracedOps = w.Ops
	}
	w.Ops, w.TracedOps = scale(w.Ops), scale(w.TracedOps)
	return w
}

// shape is one of the four cite query shapes; %d is the FID or TID
// constant.
type shape struct {
	byTarget bool // the constant is a TID, else a FID
	format   string
}

var shapes = []shape{
	{false, "Q(FName, Desc) :- Family(%[1]d, FName, Desc)"},
	{false, "Q(FName, Text) :- Family(%[1]d, FName, Desc), FamilyIntro(%[1]d, Text)"},
	{true, "Q(TName, Type) :- Target(%[1]d, FID, TName, Type)"},
	{true, "Q(FName, TName) :- Target(%[1]d, FID, TName, Type), Family(FID, FName, Desc)"},
}

type opKind uint8

const (
	opCite opKind = iota
	opIngest
	opCommit
)

func (k opKind) String() string {
	return [...]string{"cite", "ingest", "commit"}[k]
}

// op is one pre-generated request.
type op struct {
	Kind    opKind
	Path    string // request path and query string
	Body    []byte
	Query   string // cite query text
	Version int    // cite target version; 0 = head
	// Relation and Tuples describe an ingest batch, kept for the
	// durability check.
	Relation string
	Tuples   [][]any
}

// stream is a workload's pre-generated op sequence plus the indices of
// the cite responses the correctness gate checks.
type stream struct {
	Ops      []op
	Sample   []int
	Distinct int // distinct cite queries in Ops
}

// sampleSize is how many cite responses per workload the correctness
// gate checks.
const sampleSize = 200

// dataShape is what the op generator needs to know about the generated
// database: the FID range is 1..Families and the TID range 1..Targets.
type dataShape struct {
	Families, Targets int
}

func shapeOf(w workload) dataShape {
	cfg := gtopdb.DefaultConfig()
	cfg.Families = w.Families
	return dataShape{Families: w.Families, Targets: gtopdb.Generate(cfg).Relation("Target").Len()}
}

// buildStream generates the workload's op stream from the seed alone:
// the same seed and sizes give a byte-identical stream.
func buildStream(w workload, ds dataShape, seed int64, ops int) stream {
	rng := rand.New(rand.NewPCG(uint64(seed), 0x636974656c6f6164)) // "citeload"
	var st stream
	switch {
	case w.Queries == 0:
		keys := drawKeys(rng, ds, ops)
		rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
		for _, q := range keys {
			st.Ops = append(st.Ops, citeOp(q, 0))
		}
		st.Distinct = len(keys)
	case w.Durable:
		st = mixedStream(rng, w, ds, ops)
	default:
		st = repeatStream(rng, w, ds, ops)
	}
	var cites []int
	for i, o := range st.Ops {
		if o.Kind == opCite {
			cites = append(cites, i)
		}
	}
	rng.Shuffle(len(cites), func(i, j int) { cites[i], cites[j] = cites[j], cites[i] })
	st.Sample = cites[:min(sampleSize, len(cites))]
	slices.Sort(st.Sample)
	return st
}

// drawKeys draws n distinct (shape, constant) queries, an equal share
// per shape so every seed gets the same shape mix. Key i has shape
// i mod 4, so any prefix of the list (a popularity ranking, say) keeps
// that mix too.
func drawKeys(rng *rand.Rand, ds dataShape, n int) []string {
	per := make([][]string, len(shapes))
	for si, s := range shapes {
		space := ds.Families
		if s.byTarget {
			space = ds.Targets
		}
		k := min((n+len(shapes)-1-si)/len(shapes), space)
		// Partial Fisher–Yates over 1..space: k distinct constants.
		perm := make(map[int]int)
		at := func(i int) int {
			if v, ok := perm[i]; ok {
				return v
			}
			return i + 1
		}
		for i := range k {
			j := i + rng.IntN(space-i)
			vi, vj := at(i), at(j)
			perm[i], perm[j] = vj, vi
			per[si] = append(per[si], fmt.Sprintf(s.format, vj))
		}
	}
	var out []string
	for i := 0; len(out) < n; i++ {
		added := false
		for si := range per {
			if i < len(per[si]) {
				out = append(out, per[si][i])
				added = true
			}
		}
		if !added {
			break // every shape's constant space is exhausted
		}
	}
	return out[:min(n, len(out))]
}

func citeOp(q string, version int) op {
	path := "/cite"
	if version > 0 {
		path = fmt.Sprintf("/cite?version=%d", version)
	}
	return op{Kind: opCite, Path: path, Body: mustJSON(map[string]string{"query": q}), Query: q, Version: version}
}

// repeatStream draws cites from a fixed query set. Shapes take turns,
// so every stretch of the stream (a window, or the views the last few
// ops left materialized) holds the same shape mix; with several
// versions, each block of Versions ops cites every version once in
// shuffled order, and no (query, version) pair repeats while unused
// pairs of the shape remain, so the result cache only fills and evicts.
// The balance keeps the share of expensive ops the same for every seed.
func repeatStream(rng *rand.Rand, w workload, ds dataShape, n int) stream {
	qs := drawKeys(rng, ds, w.Queries)
	perShape := len(qs) / len(shapes)
	block := len(shapes) * max(1, w.Versions/len(shapes))
	used := make(map[[2]int]int) // (query index, version) → times cited
	var st stream
	for len(st.Ops) < n {
		versionOrder := rng.Perm(block)
		for k := range min(block, n-len(st.Ops)) {
			s := k % len(shapes)
			v := 0
			if w.Versions > 1 {
				v = 1 + versionOrder[k]%w.Versions
			}
			// Redraw the query while (query, v) was cited before; with
			// 64 queries per shape a fresh pair turns up within a few
			// draws until most pairs are used.
			qi := len(shapes)*rng.IntN(perShape) + s
			for try := 0; w.Versions > 1 && used[[2]int{qi, v}] > 0 && try < 4*perShape; try++ {
				qi = len(shapes)*rng.IntN(perShape) + s
			}
			used[[2]int{qi, v}]++
			st.Ops = append(st.Ops, citeOp(qs[qi], v))
		}
	}
	st.Distinct = len(qs)
	return st
}

// mixedStream interleaves head cites (exponential popularity over the
// query set) with ingest batches of fresh tuples and commits. Every
// block of mixedBlock ops holds the same mix in shuffled order: 90%
// cites, one ingest per relation and one commit.
func mixedStream(rng *rand.Rand, w workload, ds dataShape, n int) stream {
	qs := drawKeys(rng, ds, w.Queries)
	// Rank r has weight e^(-r/τ): the top eighth of the set draws about
	// 63% of cites. Ranks cycle through the shapes, so every seed's
	// popular set has the same shape mix.
	tau := float64(len(qs)) / 8
	cdf := make([]float64, len(qs))
	total := 0.0
	for r := range qs {
		total += math.Exp(-float64(r) / tau)
		cdf[r] = total
	}
	rels := []string{"Family", "FamilyIntro", "Target"}
	block := make([]int, mixedBlock) // -1 commit, 1..3 ingest into rels[k-1], 0 cite
	block[0] = -1
	for k := range rels {
		block[1+k] = 1 + k
	}

	// Fresh keys start far above the generated ranges, one counter per
	// relation, so every ingested tuple is new whatever order the two
	// clients apply the batches in.
	nextFID, nextIntro, nextTID := 1_000_001, 2_000_001, 1_000_001
	var st stream
	seen := make(map[string]bool)
	commitN := 0
	for len(st.Ops) < n {
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		for _, k := range block[:min(len(block), n-len(st.Ops))] {
			switch {
			case k == 0:
				r, _ := slices.BinarySearch(cdf, rng.Float64()*total)
				q := qs[min(r, len(qs)-1)]
				seen[q] = true
				st.Ops = append(st.Ops, citeOp(q, 0))
			case k > 0:
				rel := rels[k-1]
				tuples := make([][]any, ingestBatch)
				for t := range tuples {
					switch rel {
					case "Family":
						tuples[t] = []any{nextFID, fmt.Sprintf("Ingested family %d", nextFID), "curated later"}
						nextFID++
					case "FamilyIntro":
						tuples[t] = []any{nextIntro, fmt.Sprintf("Introduction to ingested family %d.", nextIntro)}
						nextIntro++
					case "Target":
						tuples[t] = []any{nextTID, 1 + rng.IntN(ds.Families), fmt.Sprintf("Ingested target %d", nextTID), "GPCR"}
						nextTID++
					}
				}
				st.Ops = append(st.Ops, op{
					Kind: opIngest, Path: "/ingest", Relation: rel, Tuples: tuples,
					Body: mustJSON(map[string]any{"relation": rel, "insert": tuples}),
				})
			default:
				commitN++
				st.Ops = append(st.Ops, op{Kind: opCommit, Path: "/commit",
					Body: mustJSON(map[string]string{"message": fmt.Sprintf("citeload commit %d", commitN)})})
			}
		}
	}
	st.Distinct = len(seen)
	return st
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only maps of strings, ints and slices of them
	}
	return b
}
