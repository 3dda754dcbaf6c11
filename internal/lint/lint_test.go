package lint

import (
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/lint/allow"
	"repro/internal/lint/analysistest"
)

// TestRepo is the enforcement: the three analyzers, then the //lint:allow
// audit, over every package of the root module, one subtest per package
// (named by its directory; the root package is "repro") and one
// file:line:col: message line per finding. -run 'TestRepo/internal/serve$'
// loads only that package's dependency cone and reports only its findings.
func TestRepo(t *testing.T) {
	const module = "repro"
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	paths, err := analysistest.ModulePackages(root, module)
	if err != nil {
		t.Fatal(err)
	}
	// A walk that silently finds nothing would pass; the module had 37
	// packages when this floor was written.
	if len(paths) < 30 {
		t.Fatalf("found %d packages under %s, want the whole module: %v", len(paths), root, paths)
	}
	ld := analysistest.NewLoader(Analyzers(), func(importPath string) string {
		if rest, ok := strings.CutPrefix(importPath, module); ok && (rest == "" || rest[0] == '/') {
			return filepath.Join(root, filepath.FromSlash(rest))
		}
		return ""
	})
	// The loader names every file by joining it onto root.
	rel := func(file string) string { return strings.TrimPrefix(file, root+string(filepath.Separator)) }
	for _, path := range paths {
		t.Run(strings.TrimPrefix(path, module+"/"), func(t *testing.T) {
			pkg, err := ld.Load(path)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range pkg.Diags {
				pos := ld.Fset.Position(d.Pos)
				t.Errorf("%s:%d:%d: %s", rel(pos.Filename), pos.Line, pos.Column, d.Message)
			}
			// Every analyzer has run over pkg by now, so an annotation
			// nothing consumed is stale.
			for _, f := range allow.Audit(ld.Fset, append(pkg.Files, pkg.TestFiles...), KnownChecks()) {
				t.Errorf("%s:%d: %s", rel(f.File), f.Line, f.Message)
			}
		})
	}
}
