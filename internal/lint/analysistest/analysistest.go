// Package analysistest is the one package loader under internal/lint: it
// parses, type-checks and analyzes Go packages from source, dependencies
// first, in process. Two callers share it. Run points it at an analyzer's
// GOPATH-style testdata tree and checks the diagnostics against // want
// comments, mirroring golang.org/x/tools/go/analysis/analysistest on the
// stdlib only; internal/lint's TestRepo points it at the module root, so
// "go test ./..." holds every package of the repository to the suite.
//
// A Loader maps an import path to a directory through a callback
// (<testdata>/src/<import/path> for Run). Files are picked by go/build, so
// build constraints are honoured; _test.go files are parsed but neither
// type-checked nor analyzed (every analyzer exempts them; they are kept
// for // want comments and the //lint:allow grammar audit). Import paths
// the callback does not own resolve to the standard library, type-checked
// from $GOROOT source via go/importer's "source" mode, so no compiled
// artifacts are needed. Facts travel between packages in one in-memory
// analysis.FactStore.
//
// Expectations are comments of the form
//
//	expr // want "regexp" "another regexp"
//
// Each quoted string (Go-quoted or backquoted) must match, by line, one
// diagnostic the analyzer reports; unexpected diagnostics and unmatched
// expectations both fail the test.
package analysistest

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/lint/analysis"
)

// TestData returns the canonical testdata directory of the caller's
// package: ./testdata relative to the current working directory (go test
// runs with the package directory as cwd).
func TestData() string {
	dir, err := filepath.Abs("testdata")
	if err != nil {
		panic(err)
	}
	return dir
}

// Run analyzes each named package found under testdata/src and compares
// diagnostics with the packages' // want expectations.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, pkgpaths ...string) {
	t.Helper()
	ld := NewLoader([]*analysis.Analyzer{a}, func(importPath string) string {
		dir := filepath.Join(testdata, "src", filepath.FromSlash(importPath))
		if st, err := os.Stat(dir); err != nil || !st.IsDir() {
			return ""
		}
		return dir
	})
	for _, path := range pkgpaths {
		pkg, err := ld.Load(path)
		if err != nil {
			t.Errorf("analysistest: %v", err)
			continue
		}
		check(t, ld.Fset, pkg)
	}
}

// A Package is one loaded and analyzed package.
type Package struct {
	Files     []*ast.File // buildable non-test files: type-checked and analyzed
	TestFiles []*ast.File // _test.go files: parsed only
	Types     *types.Package
	Diags     []analysis.Diagnostic // every analyzer's, sorted by position
}

// A Loader loads packages from source, each one once, sharing one FileSet
// and one fact store across everything it loads.
type Loader struct {
	Fset *token.FileSet

	analyzers []*analysis.Analyzer
	dir       func(importPath string) string
	std       types.Importer
	facts     *analysis.FactStore
	pkgs      map[string]*loaded
}

type loaded struct {
	pkg *Package
	err error
}

// NewLoader returns a Loader that runs analyzers over every package it
// loads. dir maps an import path to the directory holding its source, or
// returns "" for a path that is not the caller's; those are resolved as
// standard-library packages.
func NewLoader(analyzers []*analysis.Analyzer, dir func(importPath string) string) *Loader {
	// go/importer's "source" mode reads build.Default and nothing else.
	// With cgo off, net and os/user resolve to their pure-Go files, so
	// the standard library type-checks the same with or without a C
	// compiler on the box and no cgo tool is run.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	return &Loader{
		Fset:      fset,
		analyzers: analyzers,
		dir:       dir,
		std:       importer.ForCompiler(fset, "source", nil),
		facts:     analysis.NewFactStore(),
		pkgs:      make(map[string]*loaded),
	}
}

// Load parses, type-checks and analyzes the package at importPath, after
// every package it imports that dir resolves. Results, errors included,
// are memoized.
func (ld *Loader) Load(importPath string) (*Package, error) {
	if l, ok := ld.pkgs[importPath]; ok {
		return l.pkg, l.err
	}
	l := &loaded{err: fmt.Errorf("import cycle through %s", importPath)}
	ld.pkgs[importPath] = l
	l.pkg, l.err = ld.load(importPath)
	return l.pkg, l.err
}

func (ld *Loader) load(importPath string) (*Package, error) {
	dir := ld.dir(importPath)
	if dir == "" {
		return nil, fmt.Errorf("no source directory for package %s", importPath)
	}
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	pkg := new(Package)
	if pkg.Files, err = ld.parse(dir, bp.GoFiles); err != nil {
		return nil, err
	}
	if pkg.TestFiles, err = ld.parse(dir, append(bp.TestGoFiles, bp.XTestGoFiles...)); err != nil {
		return nil, err
	}

	imp := importerFunc(func(dep string) (*types.Package, error) {
		if ld.dir(dep) == "" {
			return ld.std.Import(dep)
		}
		p, err := ld.Load(dep)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	})
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
	tc := &types.Config{Importer: imp}
	if pkg.Types, err = tc.Check(importPath, ld.Fset, pkg.Files, info); err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", importPath, err)
	}

	unit := &analysis.Unit{Fset: ld.Fset, Files: pkg.Files, Pkg: pkg.Types, Info: info}
	if pkg.Diags, err = analysis.Run(unit, ld.analyzers, ld.facts); err != nil {
		return nil, err
	}
	return pkg, nil
}

func (ld *Loader) parse(dir string, names []string) ([]*ast.File, error) {
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(ld.Fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// ModulePackages returns the import paths of the packages of the module
// modpath rooted at root, the set "./..." names: every directory holding
// Go files the build would use, except testdata, dot and underscore
// directories and nested modules.
func ModulePackages(root, modpath string) ([]string, error) {
	var paths []string
	err := filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if dir != root {
			if name := d.Name(); name == "testdata" || name[0] == '.' || name[0] == '_' {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		var noGo *build.NoGoError
		if _, err := build.ImportDir(dir, 0); errors.As(err, &noGo) {
			return nil
		} else if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return err
		}
		paths = append(paths, path.Join(modpath, filepath.ToSlash(rel)))
		return nil
	})
	return paths, err
}

// expectation is one unconsumed "want" regexp at a file:line.
type expectation struct {
	re       *regexp.Regexp
	raw      string
	consumed bool
}

func check(t *testing.T, fset *token.FileSet, pkg *Package) {
	t.Helper()
	type lineKey struct {
		file string
		line int
	}
	wants := make(map[lineKey][]*expectation)
	for _, f := range append(pkg.Files, pkg.TestFiles...) {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(strings.TrimSuffix(strings.TrimPrefix(text, "/*"), "*/"))
				if !strings.HasPrefix(text, "want ") {
					continue
				}
				rest := strings.TrimSpace(text[len("want "):])
				pos := fset.Position(c.Pos())
				for rest != "" {
					q, err := strconv.QuotedPrefix(rest)
					if err != nil {
						t.Errorf("%s: malformed want comment %q: %v", pos, rest, err)
						break
					}
					unq, err := strconv.Unquote(q)
					if err != nil {
						t.Errorf("%s: malformed want string %q: %v", pos, q, err)
						break
					}
					re, err := regexp.Compile(unq)
					if err != nil {
						t.Errorf("%s: bad want regexp %q: %v", pos, unq, err)
						break
					}
					k := lineKey{pos.Filename, pos.Line}
					wants[k] = append(wants[k], &expectation{re: re, raw: unq})
					rest = strings.TrimSpace(rest[len(q):])
				}
			}
		}
	}

	for _, d := range pkg.Diags {
		pos := fset.Position(d.Pos)
		k := lineKey{pos.Filename, pos.Line}
		matched := false
		for _, exp := range wants[k] {
			if !exp.consumed && exp.re.MatchString(d.Message) {
				exp.consumed = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected diagnostic: %s", pos, d.Message)
		}
	}
	var keys []lineKey
	for k := range wants {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].file != keys[j].file {
			return keys[i].file < keys[j].file
		}
		return keys[i].line < keys[j].line
	})
	for _, k := range keys {
		for _, exp := range wants[k] {
			if !exp.consumed {
				t.Errorf("%s:%d: no diagnostic matching %q", k.file, k.line, exp.raw)
			}
		}
	}
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
