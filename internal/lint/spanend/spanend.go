// Package spanend verifies that every span opened with
// trace.StartSpan or Span.StartChild reaches End() on all paths out of
// the function that opened it. A span that is never ended stays open in its trace tree
// forever: /debug/traces and the slow-query log render it as an
// in-flight stage with a garbage duration, and the stage histograms
// never observe it (DESIGN.md §9). The usual hole is an early error
// return between StartSpan and the explicit End.
//
// Accepted endings, per span variable:
//   - a deferred End — `defer sp.End()` or a deferred closure whose
//     body calls sp.End();
//   - explicit End calls covering every return path after the
//     StartSpan (checked with a conservative structural walk).
//
// A span that escapes the function (returned, stored, passed to a
// call, or captured by a go statement) transfers ownership and is not
// checked here.
package spanend

import (
	"go/ast"
	"strings"

	"repro/internal/lint/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "spanend",
	Doc:  "require spans from trace.StartSpan and Span.StartChild to be ended on every path out of the opening function",
	Run:  run,
}

func tracePath(path string) bool {
	return path == "repro/internal/trace" || strings.HasSuffix(path, "internal/trace")
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var body *ast.BlockStmt
			var results bool
			switch fn := n.(type) {
			case *ast.FuncDecl:
				body = fn.Body
				results = fn.Type.Results != nil && len(fn.Type.Results.List) > 0
			case *ast.FuncLit:
				body = fn.Body
				results = fn.Type.Results != nil && len(fn.Type.Results.List) > 0
			default:
				return true
			}
			if body != nil {
				checkFunc(pass, body, results)
			}
			return true
		})
	}
	return nil
}

// openers maps each trace function that opens a span to the number of
// values it returns; the span is the last.
var openers = map[string]int{"StartSpan": 2, "StartChild": 1}

// opener returns the name of the trace function e calls to open a span,
// or "" when e is no such call.
func opener(pass *analysis.Pass, e ast.Expr) string {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return ""
	}
	fn := pass.CalleeFunc(call)
	if fn == nil || openers[fn.Name()] == 0 || !tracePath(analysis.FuncPath(fn)) {
		return ""
	}
	return fn.Name()
}

// checkFunc examines one function body (function literals nested in it
// are visited separately by run's walk and skipped here).
func checkFunc(pass *analysis.Pass, body *ast.BlockStmt, hasResults bool) {
	walkBlocks(body, func(list []ast.Stmt) {
		for i, st := range list {
			if es, ok := st.(*ast.ExprStmt); ok {
				if name := opener(pass, es.X); name != "" {
					pass.Reportf(es.Pos(), "span from trace.%s is discarded: it can never be ended and stays open in the trace tree", name)
				}
				continue
			}
			as, ok := st.(*ast.AssignStmt)
			if !ok || len(as.Rhs) != 1 {
				continue
			}
			name := opener(pass, as.Rhs[0])
			if name == "" || len(as.Lhs) != openers[name] {
				continue
			}
			spanID, ok := as.Lhs[len(as.Lhs)-1].(*ast.Ident)
			if !ok {
				continue
			}
			if spanID.Name == "_" {
				pass.Reportf(as.Pos(), "span from trace.%s is discarded: it can never be ended and stays open in the trace tree", name)
				continue
			}
			checkSpan(pass, body, list, i, as, spanID, hasResults)
		}
	})
}

// walkBlocks invokes fn on every statement list in the function body,
// without descending into nested function literals.
func walkBlocks(body *ast.BlockStmt, fn func([]ast.Stmt)) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.BlockStmt:
			fn(n.List)
		case *ast.CaseClause:
			fn(n.Body)
		case *ast.CommClause:
			fn(n.Body)
		}
		return true
	})
}

func checkSpan(pass *analysis.Pass, body *ast.BlockStmt, list []ast.Stmt, idx int, as *ast.AssignStmt, spanID *ast.Ident, hasResults bool) {
	obj := pass.ObjectOf(spanID)
	if obj == nil {
		return
	}
	sameSpan := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		return ok && id != spanID && pass.ObjectOf(id) == obj
	}

	// Classify every use of the span in the function.
	deferredEnd := false
	escapes := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt:
			if endsSpan(pass, n.Call, sameSpan) || closureEnds(pass, n.Call, sameSpan) {
				deferredEnd = true
				return false
			}
		case *ast.GoStmt:
			if usesSpan(pass, n, sameSpan) {
				escapes = true // concurrent owner; its End is out of scope
				return false
			}
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				if exprMentions(pass, r, sameSpan) {
					escapes = true
				}
			}
		case *ast.CallExpr:
			// Passing the span as an argument hands it to the callee.
			for _, arg := range n.Args {
				if exprMentions(pass, arg, sameSpan) {
					escapes = true
				}
			}
		case *ast.AssignStmt:
			if n == as {
				return true
			}
			for i, r := range n.Rhs {
				if !exprMentions(pass, r, sameSpan) {
					continue
				}
				// Rebinding to a plain local is fine only if it is the
				// same object; storing into a field, map or new
				// variable escapes.
				_ = i
				escapes = true
			}
		case *ast.CompositeLit:
			for _, e := range n.Elts {
				if exprMentions(pass, e, sameSpan) {
					escapes = true
				}
			}
		}
		return !escapes
	})
	if escapes || deferredEnd {
		return
	}

	isRelease := func(st ast.Stmt) bool {
		es, ok := st.(*ast.ExprStmt)
		if !ok {
			return false
		}
		call, ok := ast.Unparen(es.X).(*ast.CallExpr)
		return ok && endsSpan(pass, call, sameSpan)
	}
	out := analysis.CheckReleased(list[idx+1:], false, isRelease)
	for _, leak := range out.Leaks {
		pass.Reportf(leak, "return without ending span started at line %d: add %s.End() on this path (or defer it)",
			pass.Fset.Position(as.Pos()).Line, spanID.Name)
	}
	if !out.Terminated && !out.Released && !hasResults {
		pass.Reportf(as.Pos(), "span %s is not ended on the fall-through path out of this function", spanID.Name)
	}
}

// endsSpan reports whether call is sp.End() for the tracked span.
func endsSpan(pass *analysis.Pass, call *ast.CallExpr, sameSpan func(ast.Expr) bool) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	return ok && sel.Sel.Name == "End" && sameSpan(sel.X)
}

// closureEnds reports whether call invokes a function literal whose
// body contains sp.End().
func closureEnds(pass *analysis.Pass, call *ast.CallExpr, sameSpan func(ast.Expr) bool) bool {
	lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit)
	if !ok {
		return false
	}
	found := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if c, ok := n.(*ast.CallExpr); ok && endsSpan(pass, c, sameSpan) {
			found = true
		}
		return !found
	})
	return found
}

// usesSpan reports whether the node mentions the span at all.
func usesSpan(pass *analysis.Pass, n ast.Node, sameSpan func(ast.Expr) bool) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if e, ok := m.(ast.Expr); ok && sameSpan(e) {
			found = true
		}
		return !found
	})
	return found
}

// exprMentions reports whether the expression tree mentions the span
// directly (not through a method call on it).
func exprMentions(pass *analysis.Pass, e ast.Expr, sameSpan func(ast.Expr) bool) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			// sp.End(), sp.Set(...) are uses, not escapes: inspect
			// arguments but skip the receiver position.
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok && sameSpan(sel.X) {
				for _, a := range n.Args {
					if exprMentions(pass, a, sameSpan) {
						found = true
					}
				}
				return false
			}
		case *ast.Ident:
			if sameSpan(n) {
				found = true
			}
		}
		return !found
	})
	return found
}
