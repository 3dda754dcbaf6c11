// Package analysis is a self-contained, stdlib-only re-implementation of
// the core of golang.org/x/tools/go/analysis — just enough surface for the
// reprolint analyzers and the analysistest loader that drives them.
//
// The repository deliberately has no third-party dependencies, so the
// x/tools module is off the table; this package mirrors its shapes
// (Analyzer, Pass, Diagnostic, Fact) closely enough that the analyzers in
// internal/lint/... could be ported to the real framework by changing one
// import path (and listing each fact type in Analyzer.FactTypes, which
// only a driver that serializes facts needs).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// An Analyzer describes one analysis: a named invariant plus the function
// that checks a single package for violations of it.
type Analyzer struct {
	// Name identifies the analyzer in error messages and keys its facts.
	// It must be a valid Go identifier.
	Name string

	// Doc is the help text; the first line is a one-sentence summary.
	Doc string

	// Run applies the analyzer to a package. It returns an optional
	// result (unused by the reprolint suite) and an error; errors abort
	// the whole run, they are NOT diagnostics.
	Run func(*Pass) (any, error)
}

// A Pass provides one analyzer with the type-checked syntax of a single
// package and the means to report diagnostics and exchange facts.
type Pass struct {
	Analyzer *Analyzer

	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report delivers one diagnostic. Run installs it.
	Report func(Diagnostic)

	// ImportPackageFact copies the fact of fact's concrete type exported
	// by pkg (a direct or indirect dependency, or the package itself)
	// into fact, reporting whether one was found.
	ImportPackageFact func(pkg *types.Package, fact Fact) bool

	// ExportPackageFact publishes fact, associated with the current
	// package, to dependents.
	ExportPackageFact func(fact Fact)
}

// Reportf reports a diagnostic at pos with a Sprintf-formatted message.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// A Diagnostic is one reported violation, anchored to a source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// A Fact is an observation about a package that analyzers in downstream
// packages can import. Implementations must be pointers to structs (the
// FactStore copies them by value); the AFact method is only a marker.
type Fact interface {
	AFact()
}
