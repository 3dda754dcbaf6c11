// Package determinism defines an analyzer enforcing the repository's
// bit-for-bit reproducibility contract inside the engine packages.
//
// The paper's acceptance tests pin CLUSTER(τ), the oracle build, and the
// MR layer to identical outputs across worker and shard counts. Three
// constructs silently void that guarantee and are banned from engine
// packages (internal/bsp, internal/mr, internal/core, internal/mpx,
// internal/anf, internal/graph, internal/pbfs) outside _test.go files:
//
//   - ranging over a map: iteration order is randomized per run, so any
//     reducer, frontier, or stats path that observes it diverges between
//     runs. Iterate sorted keys instead.
//   - math/rand (and math/rand/v2): globally seeded, schedule-dependent.
//     All randomness must come from internal/rng's splittable,
//     hash-based generators keyed on (seed, round, node).
//   - time.Now: wall-clock must never influence algorithm output. Engines
//     report work (rounds, messages, relaxations); a caller that wants a
//     duration times the call it makes.
//
// None of the three can be waived: the analyzer honours no //lint:allow
// annotation, so a waiver naming one of them is an unknown check to the
// stale-suppression audit. internal/quotient stays out of scope because
// its crossing-edge accumulator ranges over a map; that loop is an
// order-insensitive min-merge whose output the CSR builder orders.
package determinism

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/lint/analysis"
)

// EnginePackages is the set of import paths holding deterministic engine
// code. Exported so the analyzer's tests can scope testdata packages in.
var EnginePackages = map[string]bool{
	"repro/internal/bsp":   true,
	"repro/internal/mr":    true,
	"repro/internal/core":  true,
	"repro/internal/mpx":   true,
	"repro/internal/anf":   true,
	"repro/internal/graph": true,
	"repro/internal/pbfs":  true,
}

var Analyzer = &analysis.Analyzer{
	Name: "determinism",
	Doc: "forbid map iteration, math/rand, and time.Now in engine packages\n\n" +
		"Engine packages must produce bit-for-bit identical outputs across worker and\n" +
		"shard counts; map range order, ambient randomness, and wall-clock reads all\n" +
		"break that silently. No //lint:allow waiver applies.",
	Run: run,
}

func run(pass *analysis.Pass) (any, error) {
	if !EnginePackages[pass.Pkg.Path()] {
		return nil, nil
	}
	for _, f := range pass.Files {
		if isTestFile(pass, f) {
			continue
		}
		checkImports(pass, f)
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.RangeStmt:
				checkRange(pass, n)
			case *ast.CallExpr:
				checkTimeNow(pass, n)
			}
			return true
		})
	}
	return nil, nil
}

func checkImports(pass *analysis.Pass, f *ast.File) {
	for _, spec := range f.Imports {
		path := strings.Trim(spec.Path.Value, `"`)
		if path != "math/rand" && path != "math/rand/v2" {
			continue
		}
		pass.Reportf(spec.Pos(), "%s in engine package %s: ambient randomness is schedule-dependent; draw from internal/rng (seeded, splittable) instead", path, pass.Pkg.Path())
	}
}

func checkRange(pass *analysis.Pass, rng *ast.RangeStmt) {
	tv, ok := pass.TypesInfo.Types[rng.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	pass.Reportf(rng.Pos(), "range over map %s in engine package %s: iteration order is nondeterministic; iterate sorted keys", types.TypeString(tv.Type, types.RelativeTo(pass.Pkg)), pass.Pkg.Path())
}

func checkTimeNow(pass *analysis.Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Now" {
		return
	}
	obj, ok := pass.TypesInfo.Uses[sel.Sel]
	if !ok || obj.Pkg() == nil || obj.Pkg().Path() != "time" {
		return
	}
	pass.Reportf(call.Pos(), "time.Now in engine package %s: wall-clock must not influence algorithm output; time the call in its caller", pass.Pkg.Path())
}

func isTestFile(pass *analysis.Pass, f *ast.File) bool {
	return strings.HasSuffix(pass.Fset.Position(f.Pos()).Filename, "_test.go")
}
