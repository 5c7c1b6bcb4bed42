// Package genbump enforces the storage layer's generation-counter
// contract: any method that mutates a relation's tuple state (the
// rows table and the live-row count) must bump the statistics
// generation via bumpStats. The counter is what head-snapshot reuse
// (DESIGN.md §3), the distinct-count memo and the durable layer's
// bypass detection (§8) all key on — a mutation that skips the bump
// serves stale cached citations and can brick recovery. Content-preserving
// reorganizations (compaction) and helpers whose callers bump
// (removeLocked) leave the counter alone and annotate with
//
//	//lint:nobump <reason>
//
// The analyzer is structural: it applies to methods of any type that
// declares a bumpStats method, so its corpus (and any future
// generation-counted type) is covered without a hard-coded type list.
package genbump

import (
	"go/ast"
	"go/types"

	"repro/internal/lint/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name:      "genbump",
	Directive: "nobump",
	Doc: "require bumpStats on every method that writes relation " +
		"tuple state (rows/live) unless annotated //lint:nobump <reason>",
	Run: run,
}

// tupleStateFields are the fields whose writes constitute a content
// mutation. Rows change through methods of the rows table, which this
// structural check cannot see into, but every insert or delete of a row
// also moves the live count, so a write to live marks the mutation.
var tupleStateFields = map[string]bool{
	"rows": true,
	"live": true,
}

func run(pass *analysis.Pass) error {
	counted := countedTypes(pass)
	if len(counted) == 0 {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Body == nil {
				continue
			}
			recv := receiverObj(pass, fd)
			if recv == nil || !counted[namedOf(recv.Type())] {
				continue
			}
			if fd.Name.Name == "bumpStats" {
				continue // the blessed mutator itself
			}
			checkMethod(pass, fd, recv)
		}
	}
	return nil
}

// countedTypes collects the named types in this package that declare a
// bumpStats method.
func countedTypes(pass *analysis.Pass) map[*types.Named]bool {
	out := make(map[*types.Named]bool)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Name.Name != "bumpStats" {
				continue
			}
			if recv := receiverObj(pass, fd); recv != nil {
				if n := namedOf(recv.Type()); n != nil {
					out[n] = true
				}
			}
		}
	}
	return out
}

func receiverObj(pass *analysis.Pass, fd *ast.FuncDecl) *types.Var {
	if len(fd.Recv.List) != 1 || len(fd.Recv.List[0].Names) != 1 {
		return nil
	}
	obj, _ := pass.ObjectOf(fd.Recv.List[0].Names[0]).(*types.Var)
	return obj
}

func namedOf(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

func checkMethod(pass *analysis.Pass, fd *ast.FuncDecl, recv *types.Var) {
	var writes []ast.Node
	callsBump := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if writesTupleState(pass, lhs, recv) {
					writes = append(writes, lhs)
				}
			}
		case *ast.CallExpr:
			switch fun := ast.Unparen(n.Fun).(type) {
			case *ast.Ident:
				// delete(r.rows, k) mutates a map-typed field in place.
				if fun.Name == "delete" && len(n.Args) == 2 && writesTupleState(pass, n.Args[0], recv) {
					writes = append(writes, n)
				}
			case *ast.SelectorExpr:
				if fun.Sel.Name == "bumpStats" && receiverIs(pass, fun.X, recv) {
					callsBump = true
				}
			}
		case *ast.IncDecStmt:
			if writesTupleState(pass, n.X, recv) {
				writes = append(writes, n)
			}
		case *ast.FuncLit:
			return false // separate scope; closures get their own audit
		}
		return true
	})
	if len(writes) == 0 || callsBump {
		return
	}
	// A method-level directive (the last doc-comment line, or the line
	// above the func keyword) blesses every write in the method —
	// content-preserving rewrites like compaction touch tuple state on
	// several lines and one justification covers them all.
	if pass.Suppressed(fd.Pos(), "nobump") {
		return
	}
	for _, w := range writes {
		pass.Reportf(w.Pos(),
			"method %s writes relation tuple state without calling bumpStats: head snapshots and columnar-block validity go stale (annotate content-preserving writes with //lint:nobump <reason>)",
			fd.Name.Name)
	}
}

// writesTupleState recognizes lvalues of the form r.rows, r.rows[i],
// r.live — a write through the method receiver into tuple state.
func writesTupleState(pass *analysis.Pass, e ast.Expr, recv *types.Var) bool {
	e = ast.Unparen(e)
	if ix, ok := e.(*ast.IndexExpr); ok {
		e = ast.Unparen(ix.X)
	}
	sel, ok := e.(*ast.SelectorExpr)
	if !ok || !tupleStateFields[sel.Sel.Name] {
		return false
	}
	return receiverIs(pass, sel.X, recv)
}

func receiverIs(pass *analysis.Pass, e ast.Expr, recv *types.Var) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && pass.ObjectOf(id) == recv
}
