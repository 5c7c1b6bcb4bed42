package experiments

import (
	"fmt"

	"repro/internal/cq"
	"repro/internal/evolution"
	"repro/internal/rewrite"
	"repro/internal/storage"
	"repro/internal/value"
)

// E3GenerationLatency sweeps the database size and measures end-to-end
// citation-generation latency (rewrite + materialize + annotate + policy).
// Claim (§1): GtoPdb generates citations on the fly at page-view time, so
// generation must be interactive even for large databases.
func E3GenerationLatency() (*Table, error) {
	t := &Table{
		ID:     "E3",
		Title:  "citation generation latency vs database size",
		Claim:  "generation stays interactive; cold cost is dominated by view materialization, warm cost by annotated evaluation",
		Header: []string{"|Family|", "tuples total", "cold(ms)", "warm(ms)", "per-tuple warm(us)"},
	}
	q := cq.MustParse("Q(FName, Text) :- Family(FID, FName, Desc), FamilyIntro(FID, Text)")
	for _, families := range []int{100, 1000, 5000} {
		sys, err := GtoPdbSystem(families)
		if err != nil {
			return nil, err
		}
		gen := sys.Generator()
		cold, err := timeIt(func() error {
			_, err := gen.Cite(q)
			return err
		})
		if err != nil {
			return nil, err
		}
		var nTuples int
		warm, err := timeIt(func() error {
			res, err := gen.Cite(q)
			if err != nil {
				return err
			}
			nTuples = len(res.Tuples)
			return nil
		})
		if err != nil {
			return nil, err
		}
		perTuple := float64(warm.Nanoseconds()) / 1e3 / float64(nTuples)
		t.AddRow(fmt.Sprintf("%d", families), fmt.Sprintf("%d", sys.Database().Size()),
			ms(cold), ms(warm), fmt.Sprintf("%.1f", perTuple))
	}
	return t, nil
}

// E4Incremental compares incremental view maintenance (an
// evolution.Maintainer over every registered view) against full
// recomputation for growing update batches. Claim (§3 "citation
// evolution"): citations should be maintainable incrementally; work should
// scale with the batch, not with the database.
func E4Incremental() (*Table, error) {
	t := &Table{
		ID:     "E4",
		Title:  "incremental maintenance vs full recomputation",
		Claim:  "incremental cost scales with the update batch; recompute cost scales with the database",
		Header: []string{"|Family|", "batch", "incremental(ms)", "recompute(ms)", "rows rechecked", "rows rebuilt"},
	}
	for _, families := range []int{1000, 5000} {
		for _, batch := range []int{10, 100, 1000} {
			// Incremental run.
			sysInc, err := GtoPdbSystem(families)
			if err != nil {
				return nil, err
			}
			m, err := evolution.NewMaintainer(sysInc)
			if err != nil {
				return nil, err
			}
			deltas := updateBatch(families, batch)
			incTime, err := timeIt(func() error { return m.ApplyBatch(deltas) })
			if err != nil {
				return nil, err
			}
			// Recompute run on a fresh system.
			sysRec, err := GtoPdbSystem(families)
			if err != nil {
				return nil, err
			}
			mRec, err := evolution.NewMaintainer(sysRec)
			if err != nil {
				return nil, err
			}
			recTime, err := timeIt(func() error { return mRec.RecomputeAll(deltas) })
			if err != nil {
				return nil, err
			}
			t.AddRow(fmt.Sprintf("%d", families), fmt.Sprintf("%d", batch),
				ms(incTime), ms(recTime),
				fmt.Sprintf("%d", m.Stats.RowsRechecked),
				fmt.Sprintf("%d", mRec.Stats.FullRecomputeRows))
		}
	}
	return t, nil
}

// updateBatch builds `batch` family inserts with fresh FIDs.
func updateBatch(families, batch int) []evolution.Delta {
	deltas := make([]evolution.Delta, 0, batch)
	for i := 0; i < batch; i++ {
		fid := int64(families + 10000 + i)
		deltas = append(deltas, evolution.Insert("Family", storage.Tuple{
			value.Int(fid),
			value.String(fmt.Sprintf("Batch family %d", i)),
			value.String("batch insert"),
		}))
	}
	return deltas
}

// E5MiniConVsBucket compares the MiniCon algorithm against the bucket
// baseline on the chain workload. Claim (implicit in the paper's reliance
// on [9,3,10]): MiniCon's combination phase examines far fewer candidates
// than the bucket cartesian product at equal output.
func E5MiniConVsBucket() (*Table, error) {
	t := &Table{
		ID:     "E5",
		Title:  "MiniCon vs bucket algorithm",
		Claim:  "both find the same rewritings; bucket examines >= candidates and takes longer as views grow",
		Header: []string{"joins", "views/subgoal", "rewritings", "minicon cand", "bucket cand", "minicon(ms)", "bucket(ms)"},
	}
	for _, joins := range []int{2, 3, 4} {
		for _, copies := range []int{2, 4} {
			cs, err := NewChainSetup(joins, copies, 10)
			if err != nil {
				return nil, err
			}
			var miniRes, bucketRes *rewrite.Result
			miniTime, err := timeIt(func() error {
				var err error
				miniRes, err = rewrite.Rewrite(cs.Query, cs.Views, rewrite.Options{Method: rewrite.MethodMiniCon})
				return err
			})
			if err != nil {
				return nil, err
			}
			bucketTime, err := timeIt(func() error {
				var err error
				bucketRes, err = rewrite.Rewrite(cs.Query, cs.Views, rewrite.Options{Method: rewrite.MethodBucket})
				return err
			})
			if err != nil {
				return nil, err
			}
			if len(miniRes.Rewritings) != len(bucketRes.Rewritings) {
				return nil, fmt.Errorf("E5: minicon found %d rewritings, bucket %d",
					len(miniRes.Rewritings), len(bucketRes.Rewritings))
			}
			t.AddRow(fmt.Sprintf("%d", joins), fmt.Sprintf("%d", copies),
				fmt.Sprintf("%d", len(miniRes.Rewritings)),
				fmt.Sprintf("%d", miniRes.CandidatesExamined),
				fmt.Sprintf("%d", bucketRes.CandidatesExamined),
				ms(miniTime), ms(bucketTime))
		}
	}
	return t, nil
}
