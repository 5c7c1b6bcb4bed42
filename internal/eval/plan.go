package eval

import (
	"context"
	"encoding/binary"
	"fmt"
	"slices"
	"sync"

	"repro/internal/cq"
	"repro/internal/semiring"
	"repro/internal/storage"
	"repro/internal/trace"
	"repro/internal/value"
)

// Plan is a compiled conjunctive query shape bound to the relation
// instances it was compiled against. Compilation numbers the query's
// variables into integer slots, orders the body atoms once using relation
// statistics (cardinality and per-column distinct counts), and resolves
// every term of every atom into a precomputed access path: which column to
// probe with which slot, which columns merely filter, and which columns
// bind fresh slots. Enumeration then runs over a flat []value.Value
// register file — no per-binding maps, no per-candidate maps, no Key()
// strings — and deduplicates output tuples through an open-addressed hash
// table.
//
// Every constant of the compiled query — probe, check and head constants
// alike — is a parameter: a register slot that each run fills from its
// argument vector (Args), so one Plan serves every query of its shape
// (AppendShape) over the same relations. Parametric query optimization
// (Ioannidis, Ng, Shim & Sellis, VLDB 1992) is the model: the atom order
// and probe choices depend on which terms are constants and on relation
// statistics, never on the constants' values, so a plan is chosen once
// per shape and statistics and its constants are bound per run.
//
// A Plan holds no relation: like its constants, its relations are bound
// per run. Every run takes the instance it reads, and resolves each
// step's relation there by predicate once per walk, so a cached plan
// keeps no snapshot alive. The instance must supply every predicate the
// plan reads, with the arity it was compiled against; the atom order and
// probe choices reflect the statistics of the instance Compile read.
//
// A Plan is immutable after Compile and safe for concurrent use: each run
// draws its mutable state (registers, candidate buffers) from an internal
// pool, so a cached plan serves any number of goroutines and a warm run
// performs no per-binding allocation, and none per argument. The
// citation generator keeps one plan per rewriting and citation-query
// shape and snapshot content (DESIGN.md §6).
type Plan struct {
	constant bool // body-less query: the head is all constants
	// kinds[i] is the kind of the column argument i is compared against,
	// which a run lifts it to (coerce); anyKind for a head constant,
	// which meets no column. Arguments occupy register slots 0..len-1.
	kinds []value.Kind

	nslots int // register slots: the arguments, then the variables
	steps  []atomStep
	head   []int // the register slot of each head column

	pool sync.Pool // *runState
}

// atomStep is one join level: the predicate whose relation it
// enumerates, the access path for candidate tuples, and the slot
// writes/checks to perform per tuple.
type atomStep struct {
	pred string

	// Probe: candidates are the tuples whose probeCol equals
	// regs[probeSlot]. probeParam marks an argument slot, fixed for the
	// whole run, which the columnar path resolves to a dictionary code
	// once per walk. probeCol -1 means a full scan.
	probeCol   int
	probeSlot  int
	probeParam bool

	// binds write fresh variables into the register file, in column order.
	binds []colBind
	// checks filter candidates: t[col] must equal regs[slot]. Applied
	// after binds, so intra-atom repeated variables are slot comparisons
	// against the register just written.
	checks []colCheck
}

type colBind struct{ col, slot int }

type colCheck struct {
	col  int
	slot int
	// param marks an argument slot, resolved to a dictionary code once
	// per walk rather than once per step entry.
	param bool
	// sameAtom marks an intra-atom repeat of a fresh variable: the slot is
	// written by this very step's binds, so the check must compare values
	// after binding instead of dictionary codes before it (the columnar
	// walk resolves code comparisons against registers bound by *earlier*
	// steps only).
	sameAtom bool
}

// anyKind is the kind of a head argument: it meets no column, so a run
// takes it as given.
const anyKind value.Kind = 255

// columnarEnabled gates the columnar fast path. The randomized
// equivalence tests flip it off to force the row path as the oracle; it
// is on everywhere else.
var columnarEnabled = true

// colRun is the per-run binding of one atom step: its relation in the
// run's instance, the block that relation serves (nil = row path), the
// encoded columns its probe and checks compare, the probe argument's
// dictionary code, and one resolved code per check. Resolved once per
// walk by bindBlocks, before any candidate is examined, so the candidate
// loops read flat arrays.
type colRun struct {
	rel   *storage.Relation
	blk   *storage.ColBlock
	probe *storage.Column // probe column (nil for a full scan)
	// checks[k] binds the step's checks[k]: its column (nil for a sameAtom
	// check, which compares values) and its code. Arguments are resolved
	// by bindBlocks, earlier-slot checks per step entry (registers are
	// fixed for the duration of one entry's candidate loop).
	checks []colCheckRun
	// probeCode and dead come last so the struct packs into 56 bytes:
	// every run state holds one colRun per step.
	probeCode uint32 // code of the probe argument when probeParam
	// dead: a probe or check argument does not occur in its column's
	// dictionary, so the step — and with it the whole conjunction — can
	// never match.
	dead bool
}

type colCheckRun struct {
	col  *storage.Column
	code uint32
}

// runState is the per-run mutable state drawn from the plan's pool: the
// register file, the matched tuple per step, one candidate buffer per
// join depth (reused across iterations, so warm probes allocate
// nothing), and a reusable head-projection buffer.
type runState struct {
	regs    []value.Value
	matched []storage.Tuple
	cand    [][]storage.Tuple
	headBuf storage.Tuple
	// colSteps is the walk's binding of each step, refreshed by bindBlocks
	// at the start of every run; columnarSteps counts how many steps it
	// resolved to a block (surfaced as the `columnar` span attribute).
	colSteps      []colRun
	columnarSteps int
	// examined is the number of candidate tuples the last walk looked at
	// across all join depths: the counter that paces its context polls,
	// surfaced for tracing. cancelable records whether the walk's context
	// can be canceled at all; one that cannot is never polled.
	examined   int
	cancelable bool
}

// Compile builds the execution plan of q's shape over the instances
// supplied by inst: every constant of q is a parameter, numbered in term
// order (Args), so the plan evaluates q when run with Args(q) and any
// query of the same shape (AppendShape) when run with that query's
// arguments. Unknown relations, arity mismatches and unsafe head
// variables are reported here, once, instead of on every evaluation. The
// planner asks relations for the statistics it needs (Len, DistinctCount
// — both cached by package storage) and builds hash indexes on demand for
// the probe columns it selects on mutable relations.
func Compile(inst Instance, q *cq.Query) (*Plan, error) {
	p := &Plan{}
	for _, t := range q.Head {
		if !t.IsVar {
			p.kinds = append(p.kinds, anyKind)
		}
	}
	if q.IsConstant() {
		if len(p.kinds) != len(q.Head) {
			return nil, fmt.Errorf("eval: unsafe constant query %s", q.Name)
		}
		p.constant = true
		return p, nil
	}

	// first is the argument slot of an atom's first constant.
	type atomInfo struct {
		atom  cq.Atom
		rel   *storage.Relation
		first int
	}
	remaining := make([]atomInfo, 0, len(q.Body))
	for _, a := range q.Body {
		rel := inst.Relation(a.Predicate)
		if rel == nil {
			return nil, fmt.Errorf("%w %s", ErrUnknownRelation, a.Predicate)
		}
		if rel.Schema().Arity() != len(a.Terms) {
			return nil, fmt.Errorf("eval: atom %s has arity %d, relation has %d",
				a.Predicate, len(a.Terms), rel.Schema().Arity())
		}
		remaining = append(remaining, atomInfo{a, rel, len(p.kinds)})
		for col, t := range a.Terms {
			if !t.IsVar {
				p.kinds = append(p.kinds, rel.Schema().Attributes[col].Kind)
			}
		}
	}
	p.nslots = len(p.kinds)

	// Atom ordering, computed once: greedily pick the atom with the most
	// terms bound so far (constants or previously bound variables), then
	// break ties by the smallest estimated candidate count — relation
	// cardinality divided by the best bound-column selectivity the
	// statistics admit. This is the interpreter's heuristic upgraded with
	// distinct counts, paid at compile time instead of per call. It reads
	// where the constants are, never what they are.
	bound := make(map[string]bool)
	ordered := make([]atomInfo, 0, len(remaining))
	for len(remaining) > 0 {
		bestIdx, bestScore := -1, -1
		var bestEst float64
		for i, ai := range remaining {
			score := 0
			n := ai.rel.Len()
			est := float64(n)
			for col, t := range ai.atom.Terms {
				if !t.IsVar || bound[t.Name] {
					score++
					if d := ai.rel.DistinctCount(col); d > 0 {
						if e := float64(n) / float64(d); e < est {
							est = e
						}
					}
				}
			}
			if bestIdx < 0 || score > bestScore || (score == bestScore && est < bestEst) {
				bestIdx, bestScore, bestEst = i, score, est
			}
		}
		chosen := remaining[bestIdx]
		remaining = append(remaining[:bestIdx], remaining[bestIdx+1:]...)
		ordered = append(ordered, chosen)
		for _, t := range chosen.atom.Terms {
			if t.IsVar {
				bound[t.Name] = true
			}
		}
	}

	// Slot assignment and access paths.
	slots := make(map[string]int)
	for _, ai := range ordered {
		step := atomStep{pred: ai.atom.Predicate, probeCol: -1}
		// probeable: columns whose value is known before this atom runs
		// (arguments and slots bound by earlier atoms). Intra-atom repeats
		// of a fresh variable are NOT probeable — their register is written
		// by this very tuple — and become plain slot checks.
		type boundCol struct {
			col, slot int
			param     bool
		}
		var probeable []boundCol
		freshHere := make(map[string]bool)
		arg := ai.first
		for col, t := range ai.atom.Terms {
			switch {
			case !t.IsVar:
				probeable = append(probeable, boundCol{col, arg, true})
				arg++
			case freshHere[t.Name]:
				step.checks = append(step.checks, colCheck{col: col, slot: slots[t.Name], sameAtom: true})
			default:
				if s, ok := slots[t.Name]; ok {
					probeable = append(probeable, boundCol{col, s, false})
					continue
				}
				s := p.nslots
				p.nslots++
				slots[t.Name] = s
				freshHere[t.Name] = true
				step.binds = append(step.binds, colBind{col, s})
			}
		}
		if len(probeable) > 0 {
			// Choose the most selective probeable column (largest distinct
			// count) and make sure an index backs it; remaining probeable
			// columns degrade to equality checks.
			pick, pickDistinct := 0, -1
			for i, bc := range probeable {
				if d := ai.rel.DistinctCount(bc.col); d > pickDistinct {
					pick, pickDistinct = i, d
				}
			}
			ai.rel.EnsureIndex(probeable[pick].col)
			bc := probeable[pick]
			step.probeCol, step.probeSlot, step.probeParam = bc.col, bc.slot, bc.param
			for i, bc := range probeable {
				if i != pick {
					step.checks = append(step.checks, colCheck{col: bc.col, slot: bc.slot, param: bc.param})
				}
			}
		}
		p.steps = append(p.steps, step)
	}

	p.head = make([]int, len(q.Head))
	arg := 0
	for i, t := range q.Head {
		if !t.IsVar {
			p.head[i] = arg
			arg++
			continue
		}
		s, ok := slots[t.Name]
		if !ok {
			return nil, fmt.Errorf("eval: head variable %s unbound (unsafe query %s)", t.Name, q.Name)
		}
		p.head[i] = s
	}
	p.initPool()
	return p, nil
}

// Args appends q's constants to dst in term order — the head left to
// right, then each body atom in body order, left to right: the arguments
// with which a plan of q's shape evaluates q.
func Args(dst []value.Value, q *cq.Query) []value.Value {
	for _, t := range q.Head {
		if !t.IsVar {
			dst = append(dst, t.Const)
		}
	}
	for _, a := range q.Body {
		for _, t := range a.Terms {
			if !t.IsVar {
				dst = append(dst, t.Const)
			}
		}
	}
	return dst
}

// AppendShape appends q's shape to buf: the query with its constants
// masked — the head and every body atom in order, each predicate with its
// arity, each variable by first-occurrence number and each constant as a
// parameter mark. Compile reads nothing more of q than the shape and the
// constants, so two queries of equal shape compile, over the same
// relations, to plans that evaluate either query when run with its Args.
// The name (which Compile reads only for error messages) and the
// λ-parameters of q are left out.
func AppendShape(buf []byte, q *cq.Query) []byte {
	var nb [16]string
	names := nb[:0]
	term := func(t cq.Term) {
		if !t.IsVar {
			buf = append(buf, 0)
			return
		}
		i := slices.Index(names, t.Name)
		if i < 0 {
			i = len(names)
			names = append(names, t.Name)
		}
		buf = binary.AppendUvarint(buf, uint64(i)+1)
	}
	buf = binary.AppendUvarint(buf, uint64(len(q.Head)))
	for _, t := range q.Head {
		term(t)
	}
	buf = binary.AppendUvarint(buf, uint64(len(q.Body)))
	for _, a := range q.Body {
		buf = binary.AppendUvarint(buf, uint64(len(a.Predicate)))
		buf = append(buf, a.Predicate...)
		buf = binary.AppendUvarint(buf, uint64(len(a.Terms)))
		for _, t := range a.Terms {
			term(t)
		}
	}
	return buf
}

// coerce lifts an argument to the kind of the column it is compared
// against: the query syntax writes every quoted literal as a string, so a
// constant like '2026-01-15T00:00:00Z' compared against a time column must
// be lifted to a time value (and an integer to a float column's kind).
// Unliftable arguments, and head arguments (anyKind), are taken as given —
// a mismatched one simply never matches, which is the correct
// empty-answer semantics.
func coerce(v value.Value, want value.Kind) value.Value {
	switch {
	case v.Kind() == want:
	case want == value.KindTime && v.Kind() == value.KindString:
		if lifted := value.Parse(v.Str()); lifted.Kind() == value.KindTime {
			return lifted
		}
	case want == value.KindFloat && v.Kind() == value.KindInt:
		return value.Float(float64(v.IntVal()))
	}
	return v
}

// bindArgs writes a run's arguments, lifted to their columns' kinds, into
// the argument slots. A vector of the wrong length is a caller bug.
func (p *Plan) bindArgs(st *runState, args []value.Value) {
	p.checkArgs(args)
	for i, k := range p.kinds {
		st.regs[i] = coerce(args[i], k)
	}
}

func (p *Plan) checkArgs(args []value.Value) {
	if len(args) != len(p.kinds) {
		panic(fmt.Sprintf("eval: plan takes %d arguments, run has %d", len(p.kinds), len(args)))
	}
}

// constRow is the single output row of a body-less plan: its arguments,
// which are all head constants.
func (p *Plan) constRow(args []value.Value) storage.Tuple {
	p.checkArgs(args)
	return storage.Tuple(slices.Clone(args))
}

func (p *Plan) initPool() {
	p.pool.New = func() any {
		st := &runState{
			regs:     make([]value.Value, p.nslots),
			matched:  make([]storage.Tuple, len(p.steps)),
			cand:     make([][]storage.Tuple, len(p.steps)),
			headBuf:  make(storage.Tuple, len(p.head)),
			colSteps: make([]colRun, len(p.steps)),
		}
		for i := range p.steps {
			if n := len(p.steps[i].checks); n > 0 {
				st.colSteps[i].checks = make([]colCheckRun, n)
			}
		}
		return st
	}
}

func (p *Plan) getState() *runState { return p.pool.Get().(*runState) }

// putState returns st to the pool without the relations, blocks,
// columns and rows the walk read, so a pooled state keeps none alive.
func (p *Plan) putState(st *runState) {
	clear(st.matched)
	for i, c := range st.cand {
		clear(c[:cap(c)])
		cs := &st.colSteps[i]
		cs.rel, cs.blk, cs.probe = nil, nil, nil
		for k := range cs.checks {
			cs.checks[k].col = nil
		}
	}
	p.pool.Put(st)
}

// bindBlocks resolves each step's relation in inst and its columnar
// binding for one walk: which steps have a current dictionary-encoded
// block, the block columns the step's probe and code-compared checks read
// (encoding each on its first read), the dictionary codes of the run's
// probe and check arguments, and whether an argument's absence from its
// column's dictionary makes the step (hence the whole conjunction)
// unsatisfiable. Runs once per walk, after bindArgs; the per-candidate
// loops then compare uint32 codes instead of value.Values. An instance
// that lacks a predicate of the plan is a caller bug.
func (p *Plan) bindBlocks(st *runState, inst Instance) {
	st.columnarSteps = 0
	for i := range p.steps {
		s := &p.steps[i]
		rel := inst.Relation(s.pred)
		if rel == nil {
			panic(fmt.Sprintf("eval: plan reads %s, which the instance does not supply", s.pred))
		}
		cs := &st.colSteps[i]
		cs.rel, cs.blk, cs.probe, cs.dead = rel, nil, nil, false
		if !columnarEnabled {
			continue
		}
		blk := rel.ColumnarBlock()
		if blk == nil {
			continue
		}
		cs.blk = blk
		st.columnarSteps++
		if s.probeCol >= 0 {
			cs.probe = blk.Column(s.probeCol)
			if s.probeParam {
				code, ok := cs.probe.Code(st.regs[s.probeSlot])
				if !ok {
					cs.dead = true
					continue
				}
				cs.probeCode = code
			}
		}
		for k := range s.checks {
			c, cr := &s.checks[k], &cs.checks[k]
			cr.col = nil
			if c.sameAtom {
				continue
			}
			cr.col = blk.Column(c.col)
			if c.param {
				code, ok := cr.col.Code(st.regs[c.slot])
				if !ok {
					cs.dead = true
					break
				}
				cr.code = code
			}
		}
	}
}

// cancelCheckMask paces the context polls of a walk: ctx.Err() is
// consulted every (mask+1) candidate tuples examined. A poll takes the
// context's mutex, so the interval trades promptness against hot-loop
// overhead.
const cancelCheckMask = 255

// examine counts one candidate tuple the walk looks at and reports whether
// the walk must stop: every cancelCheckMask+1 candidates it polls a
// cancelable context. Both step kinds call it once per candidate, at every
// join depth, so even a join that rejects every combination (and never
// reaches the consumer) observes a cancellation.
func (st *runState) examine(ctx context.Context) bool {
	st.examined++
	return st.examined&cancelCheckMask == 0 && st.cancelable && ctx.Err() != nil
}

// colStep enumerates one join level through its columnar block: earlier-
// slot check values resolve to dictionary codes once per entry, probe
// candidates come from the block's posting list (full scans iterate the
// dense row range), and every equality against an earlier binding or an
// argument is a uint32 compare on the code vectors. Only intra-atom
// repeats (sameAtom checks) compare values, after the step's own binds.
// Returns false iff rec did or ctx was canceled (the caller stops the
// walk).
func (p *Plan) colStep(ctx context.Context, st *runState, i int, rec func(int) bool) bool {
	s := &p.steps[i]
	cs := &st.colSteps[i]
	if cs.dead {
		return true
	}
	for k := range s.checks {
		c, cr := &s.checks[k], &cs.checks[k]
		if c.sameAtom || c.param {
			continue
		}
		code, ok := cr.col.Code(st.regs[c.slot])
		if !ok {
			return true
		}
		cr.code = code
	}
	var rows []uint32
	end := 0
	full := s.probeCol < 0
	if full {
		end = cs.blk.Len()
	} else {
		code := cs.probeCode
		if !s.probeParam {
			var ok bool
			code, ok = cs.probe.Code(st.regs[s.probeSlot])
			if !ok {
				return true
			}
		}
		rows = cs.probe.Postings(code)
		end = len(rows)
	}
cand:
	for idx := 0; idx < end; idx++ {
		if st.examine(ctx) {
			return false
		}
		row := uint32(idx)
		if !full {
			row = rows[idx]
		}
		for k := range cs.checks {
			if cr := &cs.checks[k]; cr.col != nil && cr.col.CodeAt(row) != cr.code {
				continue cand
			}
		}
		t := cs.blk.Row(row)
		for _, b := range s.binds {
			st.regs[b.slot] = t[b.col]
		}
		for k := range s.checks {
			c := &s.checks[k]
			if c.sameAtom && t[c.col] != st.regs[c.slot] {
				continue cand
			}
		}
		st.matched[i] = t
		if !rec(i + 1) {
			return false
		}
	}
	return true
}

// walk enumerates every satisfying assignment of the plan over inst
// under args, calling fn with the run state (register file filled,
// matched tuples parallel to steps). fn returning false stops the walk;
// walk reports whether it ran to completion. Every candidate is counted
// into st.examined, and a cancelable ctx is polled on the examine
// cadence: a canceled walk returns false, so callers whose fn always
// returns true read false as "canceled".
//
// Steps over a frozen relation read its columnar block through the
// code-compare path (colStep). Steps over a mutable relation, which has no
// block, run the row path below through the relation's indexes. Over
// frozen relations with columnarEnabled off, the row path is the oracle
// the randomized equivalence tests pin the columnar path against.
func (p *Plan) walk(ctx context.Context, st *runState, inst Instance, args []value.Value, fn func(*runState) bool) bool {
	p.bindArgs(st, args)
	p.bindBlocks(st, inst)
	st.examined = 0
	st.cancelable = ctx.Done() != nil
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == len(p.steps) {
			return fn(st)
		}
		if st.colSteps[i].blk != nil {
			return p.colStep(ctx, st, i, rec)
		}
		s, rel := &p.steps[i], st.colSteps[i].rel
		cands := st.cand[i][:0]
		if s.probeCol >= 0 {
			cands = rel.AppendLookup(cands, s.probeCol, st.regs[s.probeSlot])
		} else {
			cands = rel.AppendTuples(cands)
		}
		st.cand[i] = cands
		for _, t := range cands {
			if st.examine(ctx) {
				return false
			}
			for _, b := range s.binds {
				st.regs[b.slot] = t[b.col]
			}
			ok := true
			for _, c := range s.checks {
				if t[c.col] != st.regs[c.slot] {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			st.matched[i] = t
			if !rec(i + 1) {
				return false
			}
		}
		return true
	}
	return rec(0)
}

// fillHead projects the register file onto the head buffer.
func (p *Plan) fillHead(st *runState) {
	for i, s := range p.head {
		st.headBuf[i] = st.regs[s]
	}
}

// Eval runs the plan over inst under args (Args) with set semantics,
// returning the distinct answer tuples in deterministic (sorted) order.
// Every run takes the query's arguments; one of the wrong length panics.
// Pass inst as a pointer or a map (*storage.Database, Relations), so the
// conversion to Instance does not allocate.
func (p *Plan) Eval(inst Instance, args []value.Value) []storage.Tuple {
	// Background can never be canceled, so the error is statically nil.
	//lint:detach context-free public API: a walk under Background is never polled
	out, _ := p.EvalContext(context.Background(), inst, args)
	return out
}

// EvalContext is Eval with cooperative cancellation: the walk polls ctx
// per candidate tuple at every join depth, and a canceled enumeration
// aborts with ctx.Err(). A context that can never be canceled
// (ctx.Done() == nil) is never polled.
func (p *Plan) EvalContext(ctx context.Context, inst Instance, args []value.Value) ([]storage.Tuple, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if p.constant {
		return []storage.Tuple{p.constRow(args)}, nil
	}
	st := p.getState()
	defer p.putState(st)
	var ix TupleIndex
	if !p.walk(ctx, st, inst, args, func(st *runState) bool {
		p.fillHead(st)
		ix.Add(st.headBuf)
		return true
	}) {
		return nil, ctx.Err()
	}
	out := ix.Tuples()
	slices.SortFunc(out, storage.Tuple.Compare)
	return out, nil
}

// CountBindings returns the number of satisfying assignments (derivations)
// over inst under args without materializing bindings — the no-allocation
// path for read-only consumers.
func (p *Plan) CountBindings(inst Instance, args []value.Value) int {
	if p.constant {
		p.checkArgs(args)
		return 1
	}
	n := 0
	st := p.getState()
	defer p.putState(st)
	//lint:detach context-free public API: a walk under Background is never polled
	p.walk(context.Background(), st, inst, args, func(*runState) bool { n++; return true })
	return n
}

// HasBinding reports whether at least one satisfying assignment exists
// over inst under args, stopping at the first.
func (p *Plan) HasBinding(inst Instance, args []value.Value) bool {
	if p.constant {
		p.checkArgs(args)
		return true
	}
	found := false
	st := p.getState()
	defer p.putState(st)
	//lint:detach context-free public API: a walk under Background is never polled
	p.walk(context.Background(), st, inst, args, func(*runState) bool { found = true; return false })
	return found
}

// ---------------------------------------------------------------------------
// Annotated runs. Go methods cannot be generic, so the semiring-annotated
// entry points are package functions over a *Plan.

// RunAnnotated evaluates the plan over inst under args (Args) and the
// semiring sr: per output tuple, Σ over bindings of Π over body atoms of
// annot(predicate, matched tuple). Output order is deterministic.
func RunAnnotated[T any](p *Plan, inst Instance, args []value.Value, sr semiring.Semiring[T], annot func(pred string, t storage.Tuple) T) []Annotated[T] {
	// context.Background can never be canceled, so the walk never polls
	// it and the error is statically nil.
	//lint:detach context-free public API: a walk under Background is never polled
	out, _ := RunAnnotatedCtx(context.Background(), p, inst, args, sr, annot)
	return out
}

// RunAnnotatedCtx is RunAnnotated with cooperative cancellation: the walk
// polls ctx every cancelCheckMask+1 candidate tuples it examines — at
// every join depth, independent of how many satisfying assignments exist
// — so canceling ctx aborts the run promptly with ctx.Err() instead of
// finishing the enumeration. A context that can never be canceled is
// never polled. Output tuples are deduplicated by the open-addressed
// TupleIndex and annotated in first-occurrence order, each binding's
// product summed (⊕) into its tuple's annotation.
func RunAnnotatedCtx[T any](ctx context.Context, p *Plan, inst Instance, args []value.Value, sr semiring.Semiring[T], annot func(pred string, t storage.Tuple) T) ([]Annotated[T], error) {
	var ix TupleIndex
	var anns []T // anns[i] annotates ix.Tuple(i)
	if err := p.Derive(ctx, inst, args, &ix, func(id int, matched []storage.Tuple) {
		prod := sr.One()
		for j, t := range matched {
			prod = sr.Times(prod, annot(p.steps[j].pred, t))
		}
		if id == len(anns) {
			anns = append(anns, prod)
		} else {
			anns[id] = sr.Plus(anns[id], prod)
		}
	}); err != nil {
		return nil, err
	}
	out := make([]Annotated[T], ix.Len())
	for i, t := range ix.Tuples() {
		out[i] = Annotated[T]{Tuple: t, Annotation: anns[i]}
	}
	slices.SortFunc(out, func(a, b Annotated[T]) int { return a.Tuple.Compare(b.Tuple) })
	return out, nil
}

// Derive runs the plan over inst under args (Args) and hands fn every
// satisfying assignment: the id of its head tuple in ix, where a new tuple takes the
// next id, and the tuple each step matched, in step order (Pred). The
// matched slice is reused across calls. It is the one consumer annotated
// evaluation runs on: RunAnnotatedCtx folds a semiring over it, and the
// citation generator tabulates citation atoms from it. Canceling ctx
// aborts the walk with ctx.Err(), as RunAnnotatedCtx documents, and a
// finished walk attaches its work counters to ctx's span
// (recordEvalStats). A body-less plan derives its one row once, from no
// matched tuples.
func (p *Plan) Derive(ctx context.Context, inst Instance, args []value.Value, ix *TupleIndex, fn func(id int, matched []storage.Tuple)) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if p.constant {
		id, _ := ix.AddOwned(p.constRow(args))
		fn(id, nil)
		return nil
	}
	st := p.getState()
	defer p.putState(st)
	if !p.walk(ctx, st, inst, args, func(st *runState) bool {
		p.fillHead(st)
		id, _ := ix.Add(st.headBuf)
		fn(id, st.matched)
		return true
	}) {
		// The walk only ever stops after observing a non-nil (and
		// sticky) ctx.Err().
		return ctx.Err()
	}
	recordEvalStats(trace.SpanFromContext(ctx), p, st.examined, ix.Len(), st.columnarSteps)
	return nil
}

// Steps returns the number of the plan's join steps: the length of the
// matched slice Derive hands over.
func (p *Plan) Steps() int { return len(p.steps) }

// Pred returns the predicate join step i reads.
func (p *Plan) Pred(i int) string { return p.steps[i].pred }

// recordEvalStats attaches the enumeration's work counters to the
// current trace span, when one is active: candidate tuples examined
// across all join depths, the distinct output tuples, and which storage
// path served the run — `columnar` is true when every join step read a
// dictionary-encoded block, and columnar_steps gives the exact count for
// mixed plans. Nil-safe, so untraced runs pay nothing beyond the nil
// check.
func recordEvalStats(sp *trace.Span, p *Plan, examined, out, columnar int) {
	if sp == nil {
		return
	}
	sp.Add("tuples_examined", int64(examined))
	sp.Add("out_tuples", int64(out))
	sp.Set("columnar", columnar > 0 && columnar == len(p.steps))
	sp.Set("columnar_steps", columnar)
}

// ---------------------------------------------------------------------------
// Tuple hash table.

// TupleIndex deduplicates tuples and assigns each distinct tuple a dense
// id in insertion order. It is storage's tuple table — the one every
// relation keeps its rows in — so answers dedup exactly as relations do:
// by Tuple.Key equality, with no Key string built, neither in the inner
// join loop here nor in the citation generator's per-branch and
// result-union bookkeeping. Its tuples are owned clones, so an answer
// loads into a relation without another copy (Materialize).
type TupleIndex = storage.TupleIndex
