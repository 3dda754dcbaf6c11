package allow

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

func parse(t *testing.T, fset *token.FileSet, name, src string) *ast.File {
	t.Helper()
	f, err := parser.ParseFile(fset, name, src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse %s: %v", name, err)
	}
	return f
}

var known = map[string]bool{"rand": true, "walltime": true}

func TestAllowedSameLineAndAbove(t *testing.T) {
	ResetConsumptionForTest()
	fset := token.NewFileSet()
	src := `package p

func f() {
	a() //lint:allow rand seeded fixture
	//lint:allow walltime display only
	b()
	c()
}
`
	f := parse(t, fset, "/x/a.go", src)
	idx := NewIndex(fset, []*ast.File{f})

	var aPos, bPos, cPos token.Pos
	ast.Inspect(f, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			switch call.Fun.(*ast.Ident).Name {
			case "a":
				aPos = call.Pos()
			case "b":
				bPos = call.Pos()
			case "c":
				cPos = call.Pos()
			}
		}
		return true
	})
	if !idx.Allowed(aPos, "rand") {
		t.Error("same-line annotation must waive")
	}
	if !idx.Allowed(bPos, "walltime") {
		t.Error("annotation-above must waive")
	}
	if idx.Allowed(cPos, "walltime") {
		t.Error("annotation must not reach two lines down")
	}
	if idx.Allowed(aPos, "walltime") {
		t.Error("check names must match")
	}
}

func TestNoCrossFileLineCollision(t *testing.T) {
	ResetConsumptionForTest()
	fset := token.NewFileSet()
	fa := parse(t, fset, "/x/a.go", "package p\n\nfunc f() { a() } //lint:allow rand fixture\n")
	fb := parse(t, fset, "/x/b.go", "package p\n\nfunc g() { b() }\n")
	idx := NewIndex(fset, []*ast.File{fa, fb})

	var bPos token.Pos
	ast.Inspect(fb, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			bPos = call.Pos()
		}
		return true
	})
	if idx.Allowed(bPos, "rand") {
		t.Error("an annotation in a.go must not waive the same line number in b.go")
	}
}

func TestAuditStaleAndGrammar(t *testing.T) {
	ResetConsumptionForTest()
	fset := token.NewFileSet()
	src := `package p

func f() {
	a() //lint:allow rand seeded fixture
	b() //lint:allow rand this one is stale
	c() //lint:allow rand
	d() //lint:allow nosuchcheck because
}
`
	f := parse(t, fset, "/x/a.go", src)
	idx := NewIndex(fset, []*ast.File{f})

	// Consume only the first annotation, as an analyzer would.
	var aPos token.Pos
	ast.Inspect(f, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && call.Fun.(*ast.Ident).Name == "a" {
			aPos = call.Pos()
		}
		return true
	})
	if !idx.Allowed(aPos, "rand") {
		t.Fatal("setup: first annotation must match")
	}

	got := Audit(fset, []*ast.File{f}, known)
	if len(got) != 3 {
		t.Fatalf("want 3 findings, got %d: %+v", len(got), got)
	}
	if !strings.Contains(got[0].Message, "stale suppression") || got[0].Line != 5 {
		t.Errorf("finding 0: want stale at line 5, got %+v", got[0])
	}
	if !strings.Contains(got[1].Message, "no justification") || got[1].Line != 6 {
		t.Errorf("finding 1: want missing justification at line 6, got %+v", got[1])
	}
	if !strings.Contains(got[2].Message, "unknown check") || got[2].Line != 7 {
		t.Errorf("finding 2: want unknown check at line 7, got %+v", got[2])
	}
}

func TestAuditSkipsStalenessInTestFiles(t *testing.T) {
	ResetConsumptionForTest()
	fset := token.NewFileSet()
	src := `package p

func f() {
	a() //lint:allow rand never consumed but in a test file
	b() //lint:allow rand
}
`
	f := parse(t, fset, "/x/a_test.go", src)
	got := Audit(fset, []*ast.File{f}, known)
	if len(got) != 1 {
		t.Fatalf("want only the grammar finding, got %d: %+v", len(got), got)
	}
	if !strings.Contains(got[0].Message, "no justification") {
		t.Errorf("want missing-justification, got %+v", got[0])
	}
}
