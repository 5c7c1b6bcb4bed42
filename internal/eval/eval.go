// Package eval executes conjunctive queries over relation instances. It
// provides plain (set-semantics) evaluation, binding counts and existence
// tests, and semiring-annotated evaluation in the sense of Green et al.
// (PODS 2007): the annotation of an output tuple is the sum (+) over
// bindings of the product (·) of the annotations of the base tuples used.
//
// The citation generator runs the same walk (Plan.Derive) over
// *materialized view instances* and keeps, per output tuple, the paper's
// Σ_B  F_V1(CV1(B1)) · … · F_Vn(CVn(Bn))  (Definitions 2.1 and 2.2) as a
// table of citation-atom ids rather than a semiring value.
//
// Evaluation is compiled: Compile(inst, q) produces a Plan of q's shape
// that numbers variables into integer slots, orders atoms once using
// relation statistics, and precomputes per-atom access paths. Every
// constant is a parameter: a run takes the query's constants as its
// argument vector (Args), so one Plan evaluates every query of its shape
// (AppendShape) over the same relations. Every run of a Plan is one walk
// over a flat register file with index-nested-loop joins, handing each
// satisfying assignment to a consumer the entry point supplies;
// set-semantics consumers deduplicate through an open-addressed hash
// table (see plan.go). Eval, CountBindings, HasBinding and EvalAnnotated
// are thin compile-and-run wrappers; a caller that evaluates one shape
// repeatedly compiles it once and runs the Plan with each query's
// arguments. A Plan holds no relation: each run takes the instance it
// reads. The citation generator keeps one plan per rewriting and
// citation-query shape and snapshot content, and binds each cite's
// constants and instance to it.
package eval

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/cq"
	"repro/internal/semiring"
	"repro/internal/storage"
	"repro/internal/value"
)

// maxStackArgs is how many arguments the compile-and-run wrappers collect
// without a heap allocation; a query with more spills.
const maxStackArgs = 4

// ErrUnknownRelation is returned when a query references a predicate the
// instance does not supply. Callers distinguish it with errors.Is — the
// serving layer maps it to a client error instead of a server fault.
var ErrUnknownRelation = errors.New("eval: unknown relation")

// Instance supplies relation instances by predicate name. Both
// *storage.Database and the lightweight Relations map implement it.
type Instance interface {
	Relation(name string) *storage.Relation
}

// Relations adapts a plain map to the Instance interface; used to evaluate
// rewritings over materialized view instances.
type Relations map[string]*storage.Relation

// Relation returns the named relation or nil.
func (r Relations) Relation(name string) *storage.Relation { return r[name] }

// Annotated pairs an output tuple with its semiring annotation.
type Annotated[T any] struct {
	Tuple      storage.Tuple
	Annotation T
}

// Eval computes the distinct answer tuples of q over inst (set semantics),
// in deterministic (sorted) order. It compiles and runs a Plan; callers
// evaluating the same shape repeatedly should Compile once and run the
// plan with each query's Args.
func Eval(inst Instance, q *cq.Query) ([]storage.Tuple, error) {
	p, err := Compile(inst, q)
	if err != nil {
		return nil, err
	}
	var ab [maxStackArgs]value.Value
	return p.Eval(inst, Args(ab[:0], q)), nil
}

// EvalContext is Eval with cooperative cancellation: the enumeration polls
// ctx and aborts with ctx.Err() when it is canceled or its deadline
// passes. A context that can never be canceled pays no overhead.
func EvalContext(ctx context.Context, inst Instance, q *cq.Query) ([]storage.Tuple, error) {
	p, err := Compile(inst, q)
	if err != nil {
		return nil, err
	}
	var ab [maxStackArgs]value.Value
	return p.EvalContext(ctx, inst, Args(ab[:0], q))
}

// CountBindings returns the number of satisfying assignments (derivations),
// i.e. the bag-semantics multiplicity summed over all output tuples. It
// allocates nothing per assignment.
func CountBindings(inst Instance, q *cq.Query) (int, error) {
	p, err := Compile(inst, q)
	if err != nil {
		return 0, err
	}
	var ab [maxStackArgs]value.Value
	return p.CountBindings(inst, Args(ab[:0], q)), nil
}

// HasBinding reports whether q has at least one satisfying assignment,
// stopping at the first — the allocation-free existence check used by
// incremental view maintenance.
func HasBinding(inst Instance, q *cq.Query) (bool, error) {
	p, err := Compile(inst, q)
	if err != nil {
		return false, err
	}
	var ab [maxStackArgs]value.Value
	return p.HasBinding(inst, Args(ab[:0], q)), nil
}

// EvalAnnotated evaluates q under the semiring sr. The base annotation of
// each matched tuple is supplied by annot(predicate, tuple); per output
// tuple the result is Σ over bindings of Π over body atoms, exactly the
// semiring semantics of Green et al. Output order is deterministic.
func EvalAnnotated[T any](inst Instance, q *cq.Query, sr semiring.Semiring[T], annot func(pred string, t storage.Tuple) T) ([]Annotated[T], error) {
	p, err := Compile(inst, q)
	if err != nil {
		return nil, err
	}
	var ab [maxStackArgs]value.Value
	return RunAnnotated(p, inst, Args(ab[:0], q), sr, annot), nil
}

// Materialize evaluates q and loads its distinct answers into a fresh
// relation with the given schema. It is used to materialize view instances
// before evaluating rewritings over them. Eval's answer is owned and
// sorted, so the relation takes it whole (storage.InsertOwned): rows in
// answer order, no per-row clone. A schema mismatch loads nothing.
func Materialize(inst Instance, q *cq.Query, rs *storage.Relation) error {
	tuples, err := Eval(inst, q)
	if err != nil {
		return err
	}
	if _, err := rs.InsertOwned(tuples); err != nil {
		return fmt.Errorf("eval: materializing %s: %w", q.Name, err)
	}
	return nil
}
