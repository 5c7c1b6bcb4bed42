package eval

import (
	"context"
	"runtime"
	"sync"

	"repro/internal/cq"
	"repro/internal/semiring"
	"repro/internal/storage"
	"repro/internal/trace"
)

// minLeadingPerWorker is the smallest number of leading-atom tuples worth
// handing to one worker; below it the goroutine and merge overhead exceeds
// the join work saved.
const minLeadingPerWorker = 8

// EvalAnnotatedParallel is EvalAnnotated with the enumeration partitioned
// over the leading atom's candidate tuples and evaluated by up to workers
// goroutines (workers <= 0 means GOMAXPROCS). It compiles a Plan and runs
// it; callers with a hot query should Compile once and call
// RunAnnotatedParallel on the cached plan.
func EvalAnnotatedParallel[T any](inst Instance, q *cq.Query, sr semiring.Semiring[T], annot func(pred string, t storage.Tuple) T, workers int) ([]Annotated[T], error) {
	p, err := Compile(inst, q)
	if err != nil {
		return nil, err
	}
	return RunAnnotatedParallel(p, sr, annot, workers), nil
}

// RunAnnotatedParallel runs an annotated evaluation of the compiled plan
// with the enumeration partitioned over the leading atom's candidate
// tuples and evaluated by up to workers goroutines (workers <= 0 means
// GOMAXPROCS). Chunks are contiguous and merged in chunk order, so for any
// semiring with associative Plus the result — including the structure of
// free-expression annotations such as citeexpr — is identical to the
// sequential evaluation. annot must be safe for concurrent calls.
func RunAnnotatedParallel[T any](p *Plan, sr semiring.Semiring[T], annot func(pred string, t storage.Tuple) T, workers int) []Annotated[T] {
	// context.Background can never be canceled, so the walk never polls
	// it and the error is statically nil.
	//lint:detach context-free public API: a walk under Background is never polled
	out, _ := RunAnnotatedParallelCtx(context.Background(), p, sr, annot, workers)
	return out
}

// RunAnnotatedParallelCtx is RunAnnotatedParallel with cooperative
// cancellation: every worker polls ctx every cancelCheckMask+1 candidate
// tuples its chunk's walk examines — at every join depth, independent of
// how many satisfying assignments exist — so canceling ctx aborts the
// whole run promptly with ctx.Err() instead of finishing the
// enumeration. A context that can never be canceled is never polled.
func RunAnnotatedParallelCtx[T any](ctx context.Context, p *Plan, sr semiring.Semiring[T], annot func(pred string, t storage.Tuple) T, workers int) ([]Annotated[T], error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if p.constant {
		return constantRun(p, sr), nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// A sequential run leaves leading nil, so step 0 enumerates through
	// the pooled candidate buffer instead of materializing a fresh slice
	// per call; a partition with too few leading tuples reuses the slice
	// it computed.
	var leading []storage.Tuple
	if workers > 1 {
		leading = p.leadingCandidates()
		workers = min(workers, len(leading)/minLeadingPerWorker)
	}
	sp := trace.SpanFromContext(ctx)
	if workers <= 1 {
		acc, err := runAnnotatedLeading(ctx, p, sr, annot, leading)
		if err != nil {
			return nil, err
		}
		recordEvalStats(sp, p, 1, acc.examined, acc.ix.Len(), acc.columnar)
		return finishAnnotated(acc), nil
	}

	// Contiguous partition: chunk i covers leading[i*size : (i+1)*size],
	// preserving the sequential enumeration order across chunk boundaries.
	// Each worker polls ctx independently, so one cancellation stops every
	// chunk within its own poll interval.
	results := make([]*annotAcc[T], workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	size := (len(leading) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * size
		hi := lo + size
		if hi > len(leading) {
			hi = len(leading)
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(w int, chunk []storage.Tuple) {
			defer wg.Done()
			results[w], errs[w] = runAnnotatedLeading(ctx, p, sr, annot, chunk)
		}(w, leading[lo:hi])
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	// Merge chunk accumulators in chunk order. Associativity of Plus makes
	// the left-fold over chunk subtotals equal to the sequential left-fold
	// over individual bindings. Chunk tuples are already owned clones, so
	// the merged table adopts them without copying.
	total := &annotAcc[T]{}
	for _, r := range results {
		if r == nil {
			continue
		}
		total.examined += r.examined
		if r.columnar > total.columnar {
			total.columnar = r.columnar
		}
		for i, t := range r.ix.Tuples() {
			id, added := total.ix.AddOwned(t)
			if added {
				total.anns = append(total.anns, r.anns[i])
			} else {
				total.anns[id] = sr.Plus(total.anns[id], r.anns[i])
			}
		}
	}
	recordEvalStats(sp, p, workers, total.examined, total.ix.Len(), total.columnar)
	return finishAnnotated(total), nil
}

// recordEvalStats attaches the enumeration's work counters to the
// current trace span, when one is active: candidate tuples examined
// across all join depths (summed over workers), the parallelism
// actually used after partitioning, the distinct output tuples, and
// which storage path served the run — `columnar` is true when every
// join step read a dictionary-encoded block, and columnar_steps gives
// the exact count for mixed plans. Nil-safe, so untraced runs pay
// nothing beyond the nil check.
func recordEvalStats(sp *trace.Span, p *Plan, workers, examined, out, columnar int) {
	if sp == nil {
		return
	}
	sp.Add("tuples_examined", int64(examined))
	sp.Set("eval_workers", workers)
	sp.Add("out_tuples", int64(out))
	sp.Set("columnar", columnar > 0 && columnar == len(p.steps))
	sp.Set("columnar_steps", columnar)
}
