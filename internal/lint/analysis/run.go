package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// A Unit is one type-checked package ready for analysis, as the
// analysistest loader builds it from source.
type Unit struct {
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// Run applies each analyzer to the unit in order, sharing facts, and
// returns all diagnostics sorted by position. An analyzer returning an
// error (as opposed to reporting diagnostics) aborts the run.
func Run(unit *Unit, analyzers []*Analyzer, facts *FactStore) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		a := a
		pass := &Pass{
			Analyzer:  a,
			Fset:      unit.Fset,
			Files:     unit.Files,
			Pkg:       unit.Pkg,
			TypesInfo: unit.Info,
			Report: func(d Diagnostic) {
				diags = append(diags, d)
			},
			ImportPackageFact: func(pkg *types.Package, fact Fact) bool {
				return facts.Get(pkg.Path(), a.Name, fact)
			},
			ExportPackageFact: func(fact Fact) {
				facts.Set(unit.Pkg.Path(), a.Name, fact)
			},
		}
		if _, err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("analyzer %s on %s: %w", a.Name, unit.Pkg.Path(), err)
		}
	}
	sort.SliceStable(diags, func(i, j int) bool {
		pi := unit.Fset.Position(diags[i].Pos)
		pj := unit.Fset.Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		return diags[i].Message < diags[j].Message
	})
	// Drop exact duplicates (same position, same message): an analyzer
	// visiting a node through two syntactic paths should not double-report.
	out := diags[:0]
	var prev Diagnostic
	for i, d := range diags {
		if i > 0 && d.Pos == prev.Pos && d.Message == prev.Message {
			continue
		}
		out = append(out, d)
		prev = d
	}
	return out, nil
}
