package spanendtest

import (
	"context"

	"repro/internal/trace"
)

// Spans opened without a context, by Span.StartChild, are held to the
// same rule as StartSpan's.

func childLeaksOnErrorPath(ctx context.Context, fail bool) error {
	sp := trace.SpanFromContext(ctx).StartChild("stage")
	if fail {
		return errBoom // want `return without ending span started at line`
	}
	sp.End()
	return nil
}

func childDiscarded(root *trace.Span) {
	_ = root.StartChild("stage") // want `span from trace\.StartChild is discarded`
}

func childDropped(ctx context.Context) {
	trace.SpanFromContext(ctx).StartChild("stage") // want `span from trace\.StartChild is discarded`
}

func childFallsOffEnd(root *trace.Span, n int) {
	sp := root.StartChild("stage") // want `span sp is not ended on the fall-through path`
	if n > 0 {
		sp.End()
	}
}

func childDeferredEnd(ctx context.Context, fail bool) error {
	sp := trace.SpanFromContext(ctx).StartChild("stage")
	defer sp.End()
	if fail {
		return errBoom
	}
	return nil
}

func childEscapesByReturn(root *trace.Span) *trace.Span {
	sp := root.StartChild("handoff")
	return sp
}

func childExplicitAllPaths(root *trace.Span, fail bool) error {
	sp := root.StartChild("stage")
	if fail {
		sp.Set("failed", true)
		sp.End()
		return errBoom
	}
	sp.End()
	return nil
}

func childEndedInline(root *trace.Span) {
	root.StartChild("stage").End()
}
