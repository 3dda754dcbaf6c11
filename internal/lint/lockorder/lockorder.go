// Package lockorder defines the analyzer recording mutex-acquisition
// order and reporting cycles in the resulting lock graph as potential
// deadlocks.
//
// Within each function the analyzer tracks the set of held sync.Mutex /
// sync.RWMutex locks along a branch-aware syntactic walk (the same
// discipline lockedsuffix uses: defer Unlock keeps the lock held to
// function end, branch-local acquisitions stay branch-local). Every
// acquisition made while other locks are held records directed edges
// held -> acquired, identified structurally:
//
//	pkgpath.Type.field   a mutex field, via the receiver's named type
//	pkgpath.var          a package-level mutex
//	pkgpath.func.name    a function-local mutex
//
// Each package exports its edge list as the lockorder.Edges fact; a
// package's check then runs over the union of its own edges and every
// dependency's (the loader analyzes dependencies first and keeps every
// fact in one store), so the repo-wide lock graph is assembled as the
// load walks the import DAG and any cross-package cycle is reported at
// the package that closes it. A cycle containing a local
// edge u -> v is reported at v's acquisition site, including the path
// back from v to u. The degenerate self-edge — re-acquiring a lock
// already held — is reported the same way.
//
// //lint:allow lockorder <why> on the acquisition line waives one edge.
package lockorder

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"repro/internal/lint/allow"
	"repro/internal/lint/analysis"
)

// Edge is one observed acquisition order: To was acquired while From was
// held, at Pos (file:line, basename).
type Edge struct {
	From, To, Pos string
}

// Edges is the package fact carrying the lock graph fragment.
type Edges struct {
	List []Edge
}

// AFact marks Edges as a fact type.
func (*Edges) AFact() {}

var Analyzer = &analysis.Analyzer{
	Name: "lockorder",
	Doc: "mutex acquisition order must be acyclic across the repo\n\n" +
		"Records held->acquired edges per package as the lockorder.Edges fact,\n" +
		"unions them with all dependencies' edges, and reports any cycle in the\n" +
		"combined lock graph as a potential deadlock.",
	Run: run,
}

// localEdge is an edge observed in this package, with its report anchor.
type localEdge struct {
	Edge
	pos token.Pos
}

type checker struct {
	pass  *analysis.Pass
	idx   *allow.Index
	fn    *ast.FuncDecl
	seen  map[[2]string]bool
	edges []localEdge
}

func run(pass *analysis.Pass) (any, error) {
	c := &checker{
		pass: pass,
		idx:  allow.NewIndex(pass.Fset, pass.Files),
		seen: make(map[[2]string]bool),
	}
	for _, f := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(f.Pos()).Filename, "_test.go") {
			continue
		}
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				c.fn = fd
				c.walkStmts(make(lockState), fd.Body.List)
			}
		}
	}
	c.reportCycles()
	c.exportFact()
	return nil, nil
}

// lockState is the set of lock IDs held at a program point.
type lockState map[string]bool

func (s lockState) clone() lockState {
	out := make(lockState, len(s))
	for k, v := range s {
		out[k] = v
	}
	return out
}

// intersect keeps only locks held in both states: acquisitions that do
// not survive every branch are dropped rather than risk false edges.
func intersect(a, b lockState) lockState {
	out := make(lockState)
	for k := range a {
		if b[k] {
			out[k] = true
		}
	}
	return out
}

func (c *checker) walkStmts(held lockState, stmts []ast.Stmt) lockState {
	for _, s := range stmts {
		held = c.walkStmt(held, s)
	}
	return held
}

func (c *checker) walkStmt(held lockState, s ast.Stmt) lockState {
	switch s := s.(type) {
	case nil:
		return held
	case *ast.BlockStmt:
		return c.walkStmts(held, s.List)
	case *ast.ExprStmt:
		c.scanExpr(held, s.X, false)
		return held
	case *ast.DeferStmt:
		// defer mu.Unlock() keeps the lock held to function end; a
		// deferred Lock (pathological) still records its edges.
		c.scanExpr(held, s.Call, true)
		return held
	case *ast.IfStmt:
		held = c.walkStmt(held, s.Init)
		c.scanExpr(held, s.Cond, false)
		thenOut := c.walkStmts(held.clone(), s.Body.List)
		elseOut := held.clone()
		if s.Else != nil {
			elseOut = c.walkStmt(held.clone(), s.Else)
		}
		return intersect(thenOut, elseOut)
	case *ast.ForStmt:
		held = c.walkStmt(held, s.Init)
		if s.Cond != nil {
			c.scanExpr(held, s.Cond, false)
		}
		body := c.walkStmts(held.clone(), s.Body.List)
		c.walkStmt(body, s.Post)
		return held
	case *ast.RangeStmt:
		c.scanExpr(held, s.X, false)
		c.walkStmts(held.clone(), s.Body.List)
		return held
	case *ast.SwitchStmt:
		held = c.walkStmt(held, s.Init)
		if s.Tag != nil {
			c.scanExpr(held, s.Tag, false)
		}
		c.walkClauses(held, s.Body)
		return held
	case *ast.TypeSwitchStmt:
		held = c.walkStmt(held, s.Init)
		c.walkClauses(held, s.Body)
		return held
	case *ast.SelectStmt:
		for _, cl := range s.Body.List {
			if comm, ok := cl.(*ast.CommClause); ok {
				inner := held.clone()
				inner = c.walkStmt(inner, comm.Comm)
				c.walkStmts(inner, comm.Body)
			}
		}
		return held
	case *ast.LabeledStmt:
		return c.walkStmt(held, s.Stmt)
	case *ast.GoStmt:
		// A spawned goroutine acquires on its own stack; its body is
		// walked when its function (or literal, at top level of some
		// function) is — not under the spawner's held set.
		return held
	default:
		// Assignments, declarations, sends, returns: locks may be
		// acquired in rvalue position (rare but legal).
		c.scanNode(held, s)
		return held
	}
}

func (c *checker) walkClauses(held lockState, body *ast.BlockStmt) {
	for _, cl := range body.List {
		if cc, ok := cl.(*ast.CaseClause); ok {
			c.walkStmts(held.clone(), cc.Body)
		}
	}
}

// scanNode applies scanExpr to every expression in a leaf statement.
func (c *checker) scanNode(held lockState, n ast.Node) {
	ast.Inspect(n, func(x ast.Node) bool {
		if _, ok := x.(*ast.FuncLit); ok {
			return false
		}
		if call, ok := x.(*ast.CallExpr); ok {
			c.applyCall(held, call, false)
		}
		return true
	})
}

// scanExpr scans one expression for mutex calls.
func (c *checker) scanExpr(held lockState, e ast.Expr, deferred bool) {
	ast.Inspect(e, func(x ast.Node) bool {
		if _, ok := x.(*ast.FuncLit); ok {
			return false
		}
		if call, ok := x.(*ast.CallExpr); ok {
			c.applyCall(held, call, deferred)
		}
		return true
	})
}

// applyCall mutates held for one call, recording edges on acquisition.
func (c *checker) applyCall(held lockState, call *ast.CallExpr, deferred bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	kind := mutexMethod(c.pass.TypesInfo, sel)
	if kind == 0 {
		return
	}
	id := c.lockID(sel.X)
	if id == "" {
		return
	}
	switch kind {
	case acquire:
		froms := make([]string, 0, len(held))
		for from := range held {
			froms = append(froms, from)
		}
		sort.Strings(froms)
		// Self-edges included: re-acquiring a held Mutex deadlocks.
		for _, from := range froms {
			c.addEdge(from, id, call.Pos())
		}
		held[id] = true
	case release:
		if !deferred {
			delete(held, id)
		}
	}
}

const (
	acquire = 1
	release = 2
)

// mutexMethod classifies a selector call as a sync.Mutex/RWMutex acquire
// or release, or 0.
func mutexMethod(info *types.Info, sel *ast.SelectorExpr) int {
	var kind int
	switch sel.Sel.Name {
	case "Lock", "RLock", "TryLock", "TryRLock":
		kind = acquire
	case "Unlock", "RUnlock":
		kind = release
	default:
		return 0
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return 0
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return 0
	}
	t := sig.Recv().Type()
	if p, isPtr := t.(*types.Pointer); isPtr {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return 0
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return 0
	}
	if obj.Name() != "Mutex" && obj.Name() != "RWMutex" {
		return 0
	}
	return kind
}

// lockID names a mutex expression structurally; "" when unresolvable.
func (c *checker) lockID(x ast.Expr) string {
	x = ast.Unparen(x)
	switch x := x.(type) {
	case *ast.SelectorExpr:
		// Package-level var through a qualifier: pkg.Mu.
		if v, ok := c.pass.TypesInfo.Uses[x.Sel].(*types.Var); ok && v.Pkg() != nil &&
			v.Parent() == v.Pkg().Scope() {
			return v.Pkg().Path() + "." + v.Name()
		}
		// Field access: owner type + field name.
		if tv, ok := c.pass.TypesInfo.Types[x.X]; ok && tv.Type != nil {
			t := tv.Type
			for {
				if p, isPtr := t.(*types.Pointer); isPtr {
					t = p.Elem()
					continue
				}
				break
			}
			if named, isNamed := t.(*types.Named); isNamed && named.Obj().Pkg() != nil {
				return named.Obj().Pkg().Path() + "." + named.Obj().Name() + "." + x.Sel.Name
			}
		}
		return ""
	case *ast.Ident:
		v, ok := c.pass.TypesInfo.Uses[x].(*types.Var)
		if !ok || v.Pkg() == nil {
			return ""
		}
		if v.Parent() == v.Pkg().Scope() {
			return v.Pkg().Path() + "." + v.Name()
		}
		// Receiver ident with an embedded mutex: t.Lock() — name it by
		// the receiver's type.
		t := v.Type()
		for {
			if p, isPtr := t.(*types.Pointer); isPtr {
				t = p.Elem()
				continue
			}
			break
		}
		if named, isNamed := t.(*types.Named); isNamed && named.Obj().Pkg() != nil {
			if _, isStruct := named.Underlying().(*types.Struct); isStruct {
				return named.Obj().Pkg().Path() + "." + named.Obj().Name() + ".Mutex"
			}
			// A local variable whose type IS the mutex.
			fname := "func"
			if c.fn != nil {
				fname = c.fn.Name.Name
			}
			return v.Pkg().Path() + "." + fname + "." + v.Name()
		}
		return ""
	case *ast.IndexExpr:
		base := c.lockID(x.X)
		if base == "" {
			return ""
		}
		return base + "[i]"
	}
	return ""
}

// addEdge records one held->acquired observation unless waived.
func (c *checker) addEdge(from, to string, pos token.Pos) {
	if c.idx.Allowed(pos, "lockorder") {
		return
	}
	key := [2]string{from, to}
	if c.seen[key] {
		return
	}
	c.seen[key] = true
	p := c.pass.Fset.Position(pos)
	c.edges = append(c.edges, localEdge{
		Edge: Edge{From: from, To: to, Pos: fmt.Sprintf("%s:%d", baseName(p.Filename), p.Line)},
		pos:  pos,
	})
}

// reportCycles unions local edges with every dependency's fact and
// reports each local edge that closes a cycle.
func (c *checker) reportCycles() {
	adj := make(map[string][]string)
	add := func(e Edge) {
		adj[e.From] = append(adj[e.From], e.To)
	}
	for _, e := range c.edges {
		add(e.Edge)
	}
	seenPkg := make(map[string]bool)
	var imp func(p *types.Package)
	imp = func(p *types.Package) {
		for _, dep := range p.Imports() {
			if seenPkg[dep.Path()] {
				continue
			}
			seenPkg[dep.Path()] = true
			var fact Edges
			if c.pass.ImportPackageFact(dep, &fact) {
				for _, e := range fact.List {
					add(e)
				}
			}
			imp(dep)
		}
	}
	imp(c.pass.Pkg)
	for k := range adj {
		sort.Strings(adj[k])
	}

	for _, e := range c.edges {
		if path := findPath(adj, e.To, e.From); path != nil {
			if e.From == e.To {
				c.pass.Reportf(e.pos, "lock-order violation: %s acquired while already held; this deadlocks", e.To)
				continue
			}
			c.pass.Reportf(e.pos,
				"lock-order cycle: acquiring %s while holding %s, but the reverse order exists (%s); potential deadlock",
				e.To, e.From, strings.Join(path, " -> "))
		}
	}
}

// findPath BFSes from src to dst, returning the node path (src..dst) or
// nil. src == dst returns the trivial path.
func findPath(adj map[string][]string, src, dst string) []string {
	if src == dst {
		return []string{src}
	}
	prev := map[string]string{src: ""}
	queue := []string{src}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, m := range adj[n] {
			if _, ok := prev[m]; ok {
				continue
			}
			prev[m] = n
			if m == dst {
				var path []string
				for at := dst; at != ""; at = prev[at] {
					path = append(path, at)
				}
				for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
					path[i], path[j] = path[j], path[i]
				}
				return path
			}
			queue = append(queue, m)
		}
	}
	return nil
}

// exportFact publishes the package's edge fragment, sorted.
func (c *checker) exportFact() {
	if len(c.edges) == 0 {
		return
	}
	list := make([]Edge, len(c.edges))
	for i, e := range c.edges {
		list[i] = e.Edge
	}
	sort.Slice(list, func(i, j int) bool {
		if list[i].From != list[j].From {
			return list[i].From < list[j].From
		}
		return list[i].To < list[j].To
	})
	c.pass.ExportPackageFact(&Edges{List: list})
}

func baseName(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}
