// Package ctxflow defines an analyzer enforcing the cancellation contract
// the build pipeline introduced: long-running work must inherit the
// request or daemon context, never mint a fresh root.
//
// Two rules, applied to non-test code in internal/... packages:
//
//   - context.Background() and context.TODO() are forbidden. A build path
//     that roots its own context cannot be cancelled by a departing
//     waiter, a draining server, or Ctrl-C. Every algorithm entry point
//     takes its context first, so the legitimate roots are few and each
//     carries //lint:allow background with a justification: serve's
//     detached build root, whose lifecycle the server owns, and the two
//     non-cancellable wrappers internal/graph keeps because the benchmark
//     module calls ExactDiameter and ExactDiameterWeighted by name.
//   - An exported free function that loops over engine supersteps or MR
//     rounds (syntactically: a for/range statement whose body calls a
//     method named Step or Round) must accept a context.Context —
//     otherwise the loop is uncancellable by construction. Methods are
//     exempt: engine types carry their context via SetContext, checked at
//     the same barriers.
package ctxflow

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/lint/allow"
	"repro/internal/lint/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "ctxflow",
	Doc: "forbid fresh context roots in internal packages; superstep loops must take a ctx\n\n" +
		"context.Background/TODO in internal non-test code breaks the PR 5 cancellation\n" +
		"contract, and exported superstep-looping functions must be cancellable.",
	Run: run,
}

// loopCallees are the engine barrier primitives: a loop driving any of
// these is a superstep or round loop and must be cancellable.
var loopCallees = map[string]bool{
	"Step":  true,
	"Round": true,
}

func run(pass *analysis.Pass) (any, error) {
	if !strings.Contains(pass.Pkg.Path(), "internal/") {
		return nil, nil
	}
	idx := allow.NewIndex(pass.Fset, pass.Files)
	for _, f := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(f.Pos()).Filename, "_test.go") {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkRoot(pass, idx, n)
			case *ast.FuncDecl:
				checkSuperstepLoop(pass, n)
			}
			return true
		})
	}
	return nil, nil
}

func checkRoot(pass *analysis.Pass, idx *allow.Index, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	name := sel.Sel.Name
	if name != "Background" && name != "TODO" {
		return
	}
	obj, ok := pass.TypesInfo.Uses[sel.Sel]
	if !ok || obj.Pkg() == nil || obj.Pkg().Path() != "context" {
		return
	}
	if idx.Allowed(call.Pos(), "background") {
		return
	}
	pass.Reportf(call.Pos(), "context.%s in internal package %s: builds must inherit the request/daemon context; thread a ctx parameter through, or annotate a deliberate root with //lint:allow background", name, pass.Pkg.Path())
}

func checkSuperstepLoop(pass *analysis.Pass, fn *ast.FuncDecl) {
	if fn.Recv != nil || fn.Body == nil || !fn.Name.IsExported() {
		return
	}
	if hasContextParam(pass, fn) {
		return
	}
	var culprit string
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if culprit != "" {
			return false
		}
		var body *ast.BlockStmt
		switch loop := n.(type) {
		case *ast.ForStmt:
			body = loop.Body
		case *ast.RangeStmt:
			body = loop.Body
		default:
			return true
		}
		ast.Inspect(body, func(m ast.Node) bool {
			if culprit != "" {
				return false
			}
			call, ok := m.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || !loopCallees[sel.Sel.Name] {
				return true
			}
			if obj, ok := pass.TypesInfo.Uses[sel.Sel]; ok {
				if _, isFunc := obj.(*types.Func); isFunc {
					culprit = sel.Sel.Name
				}
			}
			return true
		})
		return true
	})
	// Also catch loops whose condition drives the engine: for e.Step(...) {}.
	if culprit == "" {
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			if culprit != "" {
				return false
			}
			loop, ok := n.(*ast.ForStmt)
			if !ok || loop.Cond == nil {
				return true
			}
			ast.Inspect(loop.Cond, func(m ast.Node) bool {
				call, ok := m.(*ast.CallExpr)
				if !ok {
					return true
				}
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok && loopCallees[sel.Sel.Name] {
					culprit = sel.Sel.Name
				}
				return true
			})
			return true
		})
	}
	if culprit != "" {
		pass.Reportf(fn.Name.Pos(), "exported function %s loops over %s barriers but accepts no context.Context: superstep loops must be cancellable (PR 5 contract)", fn.Name.Name, culprit)
	}
}

func hasContextParam(pass *analysis.Pass, fn *ast.FuncDecl) bool {
	for _, field := range fn.Type.Params.List {
		tv, ok := pass.TypesInfo.Types[field.Type]
		if !ok {
			continue
		}
		named, ok := tv.Type.(*types.Named)
		if !ok {
			continue
		}
		obj := named.Obj()
		if obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context" {
			return true
		}
	}
	return false
}
