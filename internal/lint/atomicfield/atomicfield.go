// Package atomicfield defines an analyzer guarding the repository's mixed
// atomic/plain access convention.
//
// The engines claim work with sync/atomic on raw words — bsp.Bitmap's CAS
// words, the weighted engine's packed (dist,owner) claim words, the
// traversal engine's parent words. A struct field that is EVER accessed
// through sync/atomic in a package must never be read or written plainly
// in that package's non-test code: a plain load next to a CAS is exactly
// the kind of race the -race job only catches when a scheduler cooperates.
//
// The analyzer follows the package's actual idioms, not just the direct
// atomic.Op(&x.f, ...) shape:
//
//   - address-through-local: word := &b.words[i]; atomic.LoadUint64(word)
//   - slice-copy-then-index: slot := e.slot; casLower(&slot[v], w)
//   - atomic helpers: a package function whose pointer parameter reaches
//     a sync/atomic call (casLower) transmits atomicity to its
//     call sites, found by fixpoint.
//
// A field marked atomic is then checked for plain access everywhere in
// the package, including through the same local aliases: element reads
// and writes, ranges, clear/copy, and pointer dereferences are flagged.
// Whole-slice-header operations (x.f = make(...), len/cap, reslicing)
// stay legal — they happen before the worker goroutines exist. Escapes
// into untracked calls are out of scope by design.
//
// Two sanctioned escape hatches exist, both explicit:
//
//   - _test.go files are exempt (tests inspect state after joining the
//     goroutines they spawned), and
//   - a documented single-writer, barrier-snapshot, or workers=1 fast
//     path carries //lint:allow plainatomic on the access line, the line
//     above, or the enclosing function declaration — which is also where
//     the justification ("word-disjoint chunks", "phase snapshot")
//     belongs.
package atomicfield

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/lint/allow"
	"repro/internal/lint/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "atomicfield",
	Doc: "flag plain access to struct fields that are elsewhere accessed via sync/atomic\n\n" +
		"A field touched through sync/atomic anywhere in a package (directly, through a\n" +
		"local alias, or through an atomic helper) must be touched that way everywhere\n" +
		"outside tests and annotated single-writer fast paths.",
	Run: run,
}

type accessKind int

const (
	wordAtomic accessKind = 1 << iota
	elementAtomic
)

type aliasKind int

const (
	aliasPtr   aliasKind = iota // v := &x.f or v := &x.f[i]
	aliasSlice                  // v := x.f (slice header copy)
)

type aliasInfo struct {
	field types.Object
	kind  aliasKind
	elem  bool // for aliasPtr: points at an element, not the whole field
}

type checker struct {
	pass       *analysis.Pass
	idx        *allow.Index
	aliases    map[types.Object]aliasInfo // local var -> field it aliases
	helpers    map[types.Object][]int     // package func -> atomic pointer-param indices
	marked     map[types.Object]accessKind
	display    map[types.Object]string       // field -> "Type.field" for messages
	okSel      map[*ast.SelectorExpr]bool    // selector nodes consumed by atomic shapes
	okIdent    map[*ast.Ident]bool           // alias idents consumed by atomic shapes
	funcDecls  []*ast.FuncDecl               // non-test, in package order
	fieldOwner map[*ast.SelectorExpr]types.Object
}

func run(pass *analysis.Pass) (any, error) {
	c := &checker{
		pass:       pass,
		idx:        allow.NewIndex(pass.Fset, pass.Files),
		aliases:    make(map[types.Object]aliasInfo),
		helpers:    make(map[types.Object][]int),
		marked:     make(map[types.Object]accessKind),
		display:    make(map[types.Object]string),
		okSel:      make(map[*ast.SelectorExpr]bool),
		okIdent:    make(map[*ast.Ident]bool),
		fieldOwner: make(map[*ast.SelectorExpr]types.Object),
	}
	var files []*ast.File
	for _, f := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(f.Pos()).Filename, "_test.go") {
			continue
		}
		files = append(files, f)
	}

	c.collectAliases(files)
	c.findHelpers(files)
	c.markAtomics(files)
	if len(c.marked) == 0 {
		return nil, nil
	}
	c.flag(files)
	return nil, nil
}

// collectAliases records locals initialized from fields: pointers to a
// field or an element of one, and slice-header copies. Chains (w := v)
// inherit; declarations precede uses in Go, so one in-order sweep settles
// them.
func (c *checker) collectAliases(files []*ast.File) {
	record := func(lhs ast.Expr, rhs ast.Expr) {
		id, ok := lhs.(*ast.Ident)
		if !ok || id.Name == "_" {
			return
		}
		obj := c.pass.TypesInfo.Defs[id]
		if obj == nil {
			obj = c.pass.TypesInfo.Uses[id]
		}
		if obj == nil {
			return
		}
		switch r := rhs.(type) {
		case *ast.UnaryExpr:
			if r.Op != token.AND {
				return
			}
			switch t := r.X.(type) {
			case *ast.SelectorExpr: // v := &x.f
				if f := c.fieldObject(t); f != nil {
					c.aliases[obj] = aliasInfo{field: f, kind: aliasPtr}
					c.okSel[t] = true
				}
			case *ast.IndexExpr: // v := &x.f[i] or v := &s[i] with s an alias
				if f, sel := c.indexedField(t); f != nil {
					c.aliases[obj] = aliasInfo{field: f, kind: aliasPtr, elem: true}
					if sel != nil {
						c.okSel[sel] = true
					}
					if base, ok := t.X.(*ast.Ident); ok {
						c.okIdent[base] = true
					}
				}
			}
		case *ast.SelectorExpr: // v := x.f (header copy — legal in itself)
			if f := c.fieldObject(r); f != nil && isSliceLike(obj.Type()) {
				c.aliases[obj] = aliasInfo{field: f, kind: aliasSlice}
			}
		case *ast.Ident: // v := w, inherit w's alias
			if robj := c.pass.TypesInfo.Uses[r]; robj != nil {
				if info, ok := c.aliases[robj]; ok {
					c.aliases[obj] = info
				}
			}
		}
	}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if len(n.Lhs) == len(n.Rhs) {
					for i := range n.Lhs {
						record(n.Lhs[i], n.Rhs[i])
					}
				}
			case *ast.ValueSpec:
				if len(n.Names) == len(n.Values) {
					for i := range n.Names {
						record(n.Names[i], n.Values[i])
					}
				}
			}
			return true
		})
	}
}

// findHelpers computes, to fixpoint, the package functions that forward a
// pointer parameter into sync/atomic (or into another helper).
func (c *checker) findHelpers(files []*ast.File) {
	for changed := true; changed; {
		changed = false
		for _, f := range files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fobj := c.pass.TypesInfo.Defs[fd.Name]
				if fobj == nil {
					continue
				}
				params := make(map[types.Object]int)
				i := 0
				for _, field := range fd.Type.Params.List {
					for _, name := range field.Names {
						if obj := c.pass.TypesInfo.Defs[name]; obj != nil {
							params[obj] = i
						}
						i++
					}
				}
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					for _, argIdx := range c.atomicArgIndices(call) {
						if argIdx >= len(call.Args) {
							continue
						}
						var pid *ast.Ident
						switch a := call.Args[argIdx].(type) {
						case *ast.Ident: // atomic.Op(p, ...) with p a param
							pid = a
						case *ast.UnaryExpr: // atomic.Op(&p[i], ...) with p a slice param
							if a.Op == token.AND {
								if ix, ok := a.X.(*ast.IndexExpr); ok {
									pid, _ = ix.X.(*ast.Ident)
								}
							}
						}
						if pid == nil {
							continue
						}
						pobj := c.pass.TypesInfo.Uses[pid]
						if pobj == nil {
							continue
						}
						if pi, isParam := params[pobj]; isParam {
							if !containsInt(c.helpers[fobj], pi) {
								c.helpers[fobj] = append(c.helpers[fobj], pi)
								changed = true
							}
						}
					}
					return true
				})
			}
		}
	}
}

// atomicArgIndices returns the argument positions of call that are
// treated as atomically-accessed addresses: [0] for sync/atomic
// functions, the recorded parameter indices for package helpers, nil
// otherwise.
func (c *checker) atomicArgIndices(call *ast.CallExpr) []int {
	var obj types.Object
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		obj = c.pass.TypesInfo.Uses[fun.Sel]
	case *ast.Ident:
		obj = c.pass.TypesInfo.Uses[fun]
	}
	fn, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	if fn.Pkg() != nil && fn.Pkg().Path() == "sync/atomic" {
		return []int{0}
	}
	if idxs, ok := c.helpers[obj]; ok {
		return idxs
	}
	return nil
}

// markAtomics walks every call and marks the fields whose words reach an
// atomic operation, sanctioning the exact nodes involved.
func (c *checker) markAtomics(files []*ast.File) {
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			for _, argIdx := range c.atomicArgIndices(call) {
				if argIdx >= len(call.Args) {
					continue
				}
				switch a := call.Args[argIdx].(type) {
				case *ast.UnaryExpr:
					if a.Op != token.AND {
						continue
					}
					switch t := a.X.(type) {
					case *ast.SelectorExpr: // atomic.Op(&x.f, ...)
						if fld := c.fieldObject(t); fld != nil {
							c.mark(fld, wordAtomic)
							c.okSel[t] = true
						}
					case *ast.IndexExpr: // atomic.Op(&x.f[i], ...) / (&s[i], ...)
						if fld, sel := c.indexedField(t); fld != nil {
							c.mark(fld, elementAtomic)
							if sel != nil {
								c.okSel[sel] = true
							}
							if base, ok := t.X.(*ast.Ident); ok {
								c.okIdent[base] = true
							}
						}
					}
				case *ast.Ident: // atomic.Op(p, ...) with p an alias pointer
					if obj := c.pass.TypesInfo.Uses[a]; obj != nil {
						if info, ok := c.aliases[obj]; ok && info.kind == aliasPtr {
							if info.elem {
								c.mark(info.field, elementAtomic)
							} else {
								c.mark(info.field, wordAtomic)
							}
							c.okIdent[a] = true
						}
					}
				}
			}
			return true
		})
	}
}

func (c *checker) mark(field types.Object, kind accessKind) {
	c.marked[field] |= kind
}

// flag reports plain accesses to marked fields, both direct and through
// recorded aliases.
func (c *checker) flag(files []*ast.File) {
	for _, f := range files {
		var stack []ast.Node
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			stack = append(stack, n)
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if c.okSel[n] {
					return true
				}
				fld := c.fieldObject(n)
				if fld == nil {
					return true
				}
				kind, ok := c.marked[fld]
				if !ok {
					return true
				}
				if verdict := classify(n, parentOf(stack), kind); verdict != "" {
					c.report(n.Pos(), stack, fld, verdict)
				}
			case *ast.Ident:
				if c.okIdent[n] {
					return true
				}
				obj := c.pass.TypesInfo.Uses[n]
				if obj == nil {
					return true
				}
				info, ok := c.aliases[obj]
				if !ok {
					return true
				}
				kind, ok := c.marked[info.field]
				if !ok {
					return true
				}
				if verdict := c.classifyAlias(n, parentOf(stack), info, kind); verdict != "" {
					c.report(n.Pos(), stack, info.field, verdict+" through local alias "+n.Name)
				}
			}
			return true
		})
	}
}

// classify judges a direct selector use of a marked field.
func classify(sel *ast.SelectorExpr, parent ast.Node, kind accessKind) string {
	if kind&elementAtomic != 0 {
		switch p := parent.(type) {
		case *ast.IndexExpr:
			if p.X == sel {
				return "element access"
			}
		case *ast.RangeStmt:
			if p.X == sel {
				return "range over elements"
			}
		case *ast.CallExpr:
			if fn, ok := p.Fun.(*ast.Ident); ok && (fn.Name == "clear" || fn.Name == "copy") {
				for _, arg := range p.Args {
					if arg == sel {
						return fn.Name + " over elements"
					}
				}
			}
		}
		// Slice-header operations (x.f = make(...), len/cap, reslicing,
		// header copies) are setup-time and stay legal.
		return ""
	}
	// Word-atomic scalar: every plain read or write is suspect.
	switch p := parent.(type) {
	case *ast.AssignStmt:
		for _, lhs := range p.Lhs {
			if lhs == sel {
				return "write"
			}
		}
	case *ast.UnaryExpr:
		if p.Op == token.AND {
			return "" // address handoff: aliasing escape, tracked where visible
		}
	case *ast.IncDecStmt:
		return "increment"
	}
	return "read"
}

// classifyAlias judges a use of a local alias of a marked field.
func (c *checker) classifyAlias(id *ast.Ident, parent ast.Node, info aliasInfo, kind accessKind) string {
	switch info.kind {
	case aliasSlice:
		if kind&elementAtomic == 0 {
			return ""
		}
		switch p := parent.(type) {
		case *ast.IndexExpr:
			if p.X == id {
				return "element access"
			}
		case *ast.RangeStmt:
			if p.X == id {
				return "range over elements"
			}
		case *ast.CallExpr:
			if fn, ok := p.Fun.(*ast.Ident); ok && (fn.Name == "clear" || fn.Name == "copy") {
				for _, arg := range p.Args {
					if arg == id {
						return fn.Name + " over elements"
					}
				}
			}
		case *ast.UnaryExpr:
			// &s[i] shapes were sanctioned during marking; a bare &s is a
			// header handoff.
			return ""
		}
		return ""
	case aliasPtr:
		if p, ok := parent.(*ast.StarExpr); ok && p.X == id {
			return "dereference"
		}
	}
	return ""
}

func (c *checker) report(pos token.Pos, stack []ast.Node, field types.Object, verdict string) {
	if c.idx.Allowed(pos, "plainatomic") || c.idx.AllowedFunc(enclosingFunc(stack), "plainatomic") {
		return
	}
	c.pass.Reportf(pos, "field %s is accessed with sync/atomic elsewhere in this package; plain %s can race — use the atomic path, or annotate a documented single-writer fast path with //lint:allow plainatomic", c.displayName(field), verdict)
}

// fieldObject resolves sel to a struct field object, or nil, remembering
// a display name for diagnostics.
func (c *checker) fieldObject(sel *ast.SelectorExpr) types.Object {
	s, ok := c.pass.TypesInfo.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return nil
	}
	obj := s.Obj()
	if _, seen := c.display[obj]; !seen {
		if tv, ok := c.pass.TypesInfo.Types[sel.X]; ok {
			t := tv.Type
			for {
				p, ok := t.Underlying().(*types.Pointer)
				if !ok {
					break
				}
				t = p.Elem()
			}
			c.display[obj] = types.TypeString(t, types.RelativeTo(c.pass.Pkg)) + "." + obj.Name()
		}
	}
	return obj
}

func (c *checker) displayName(field types.Object) string {
	if name, ok := c.display[field]; ok {
		return name
	}
	return field.Name()
}

// indexedField resolves idx (expr[i]) to the field whose element is
// addressed: either directly (x.f[i]) or through a slice alias (s[i]).
// The returned selector, if any, is the node to sanction.
func (c *checker) indexedField(idx *ast.IndexExpr) (types.Object, *ast.SelectorExpr) {
	switch base := idx.X.(type) {
	case *ast.SelectorExpr:
		return c.fieldObject(base), base
	case *ast.Ident:
		if obj := c.pass.TypesInfo.Uses[base]; obj != nil {
			if info, ok := c.aliases[obj]; ok && info.kind == aliasSlice {
				return info.field, nil
			}
		}
	}
	return nil, nil
}

func parentOf(stack []ast.Node) ast.Node {
	if len(stack) >= 2 {
		return stack[len(stack)-2]
	}
	return nil
}

func enclosingFunc(stack []ast.Node) *ast.FuncDecl {
	for i := len(stack) - 1; i >= 0; i-- {
		if fd, ok := stack[i].(*ast.FuncDecl); ok {
			return fd
		}
	}
	return nil
}

func isSliceLike(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Slice, *types.Array:
		return true
	}
	return false
}

func containsInt(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}
