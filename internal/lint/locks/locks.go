// Package locks defines the analyzer that walks every function's held
// sync.Mutex / sync.RWMutex set once and feeds two checks from that walk:
//
//   - The *Locked naming convention ("locked"): a function whose name
//     ends in "Locked" documents that its caller must already hold the
//     guarding mutex, so every call site must hold a lock or itself be a
//     *Locked function.
//   - Lock order ("lockorder"): every acquisition made while other locks
//     are held records directed edges held -> acquired, and a cycle in the
//     repo-wide lock graph is reported as a potential deadlock.
//
// The walk is syntactic and intra-function, in the spirit of
// staticcheck's SA-family heuristics, not a full lockset analysis:
//
//   - x.Lock(), x.RLock(), x.TryLock() and x.TryRLock() acquire and
//     x.Unlock() and x.RUnlock() release, when the method is sync.Mutex's
//     or sync.RWMutex's; "defer x.Unlock()" keeps the lock held for the
//     rest of the function.
//   - Statements are evaluated block-structured in source order. Lock
//     effects inside a branch (if/for/switch/select arm) are visible
//     inside that branch but do not release for the code after it: the
//     early-return "if bad { mu.Unlock(); return err }" pattern must not
//     unlock the happy path. Acquisitions do propagate out of branches
//     (over-approximate by design: both checks hunt for the path on
//     which a lock is, or is not, held).
//   - Function literals are independent scopes, each walked from an empty
//     held set: a closure does not inherit its definer's locks, because
//     it may run on another goroutine after they are released, and the
//     locks it takes itself order like any function's.
//
// Each held lock carries two names. Its owner is the expression owning
// the mutex: for s.mu.Lock() the owner is "s", for a package-level
// pkgMu.Lock() it is "" (package scope). A method call recv.fooLocked()
// is sanctioned by a lock of the same owner expression (s.mu.Lock()
// sanctions s.evictLRULocked()) or by a package-level mutex (ownership
// cannot be inferred syntactically); a plain fooLocked() call by any held
// lock. Its id names the mutex structurally, for the lock graph:
//
//	pkgpath.Type.field   a mutex field, via the receiver's named type
//	pkgpath.var          a package-level mutex
//	pkgpath.func.name    a function-local mutex
//
// Each package exports its edge list as the locks.Edges fact; a package's
// order check then runs over the union of its own edges and every
// dependency's (the loader analyzes dependencies first and keeps every
// fact in one store), so the repo-wide lock graph is assembled as the
// load walks the import DAG and any cross-package cycle is reported at
// the package that closes it. A cycle containing a local edge u -> v is
// reported at v's acquisition site, including the path back from v to u.
// The degenerate self-edge — re-acquiring a lock already held — is
// reported the same way.
//
// //lint:allow locked <why> on a *Locked call site records exclusivity
// established by other means; //lint:allow lockorder <why> on an
// acquisition line waives that acquisition's edges.
package locks

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
	Name: "locks",
	Doc: "*Locked functions are called with their mutex held, and mutex order is acyclic\n\n" +
		"One branch-aware walk per function body tracks the held sync mutexes. Calls to\n" +
		"functions named *Locked with no sanctioning lock held are reported; held->acquired\n" +
		"edges are exported per package as the locks.Edges fact, unioned with all\n" +
		"dependencies' edges, and any cycle in the combined lock graph is reported as a\n" +
		"potential deadlock.",
	Run: run,
}

// localEdge is an edge observed in this package, with its report anchor.
type localEdge struct {
	Edge
	pos token.Pos
}

type checker struct {
	pass       *analysis.Pass
	idx        *allow.Index
	fn         string // enclosing declaration's name, for function-local mutex ids
	selfLocked bool   // the scope being walked is a *Locked function
	seen       map[[2]string]bool
	edges      []localEdge
}

// lockKey is one held mutex: its structural id ("" when unresolvable,
// which records no edges) and its owner expression.
type lockKey struct{ id, owner string }

// lockset counts the acquisitions of each held mutex at a program point.
type lockset map[lockKey]int

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
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					c.fn = n.Name.Name
					c.walkBody(n.Body, strings.HasSuffix(n.Name.Name, "Locked"))
				}
				return false // walkBody walks nested literals itself
			case *ast.FuncLit:
				// Top-level var initializer literals reach here.
				c.fn = "func"
				c.walkBody(n.Body, false)
				return false
			}
			return true
		})
	}
	c.reportCycles()
	c.exportFact()
	return nil, nil
}

// walkBody walks one function body from an empty held set.
func (c *checker) walkBody(body *ast.BlockStmt, selfLocked bool) {
	outer := c.selfLocked
	c.selfLocked = selfLocked
	c.evalStmt(body, make(lockset))
	c.selfLocked = outer
}

// evalStmt evaluates stmt against held, mutating it for effects at this
// nesting level. Nested blocks run on copies; acquisitions merge back
// (max), releases stay confined to their branch.
func (c *checker) evalStmt(stmt ast.Stmt, held lockset) {
	switch s := stmt.(type) {
	case nil:
	case *ast.BlockStmt:
		for _, st := range s.List {
			c.evalStmt(st, held)
		}
	case *ast.IfStmt:
		c.evalStmt(s.Init, held)
		c.scan(s.Cond, held, false)
		c.evalBranch(s.Body, held)
		if s.Else != nil {
			c.evalBranch(s.Else, held)
		}
	case *ast.ForStmt:
		c.evalStmt(s.Init, held)
		c.scan(s.Cond, held, false)
		body := held.clone()
		c.evalStmt(s.Body, body)
		c.evalStmt(s.Post, body)
		held.mergeAcquisitions(body)
	case *ast.RangeStmt:
		c.scan(s.X, held, false)
		c.evalBranch(s.Body, held)
	case *ast.SwitchStmt:
		c.evalStmt(s.Init, held)
		c.scan(s.Tag, held, false)
		c.evalClauses(s.Body, held)
	case *ast.TypeSwitchStmt:
		c.evalStmt(s.Init, held)
		c.evalStmt(s.Assign, held)
		c.evalClauses(s.Body, held)
	case *ast.SelectStmt:
		c.evalClauses(s.Body, held)
	case *ast.LabeledStmt:
		c.evalStmt(s.Stmt, held)
	case *ast.DeferStmt:
		// The deferred call runs at function exit: a deferred Unlock keeps
		// the lock held for the rest of the scope, so releases are ignored;
		// argument expressions evaluate now.
		c.scan(s.Call, held, true)
	default:
		// Leaf statements (expressions, assignments, go, return, decls):
		// scan contained calls in source order.
		c.scan(stmt, held, false)
	}
}

// evalBranch runs stmt on a copy of held and merges its acquisitions back.
func (c *checker) evalBranch(stmt ast.Stmt, held lockset) {
	branch := held.clone()
	c.evalStmt(stmt, branch)
	held.mergeAcquisitions(branch)
}

// evalClauses runs each case/comm clause of body on its own copy of held.
func (c *checker) evalClauses(body *ast.BlockStmt, held lockset) {
	for _, st := range body.List {
		arm := held.clone()
		switch cl := st.(type) {
		case *ast.CaseClause:
			for _, e := range cl.List {
				c.scan(e, arm, false)
			}
			for _, bs := range cl.Body {
				c.evalStmt(bs, arm)
			}
		case *ast.CommClause:
			c.evalStmt(cl.Comm, arm)
			for _, bs := range cl.Body {
				c.evalStmt(bs, arm)
			}
		}
		held.mergeAcquisitions(arm)
	}
}

// scan walks a leaf node for lock-relevant calls, applying them to held in
// source order. Function literals are walked as fresh scopes.
func (c *checker) scan(n ast.Node, held lockset, deferred bool) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.FuncLit:
			c.walkBody(m.Body, false)
			return false
		case *ast.CallExpr:
			c.applyCall(m, held, deferred)
		}
		return true
	})
}

func (c *checker) applyCall(call *ast.CallExpr, held lockset, deferred bool) {
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		if kind := mutexMethod(c.pass.TypesInfo, fun); kind != 0 {
			k := lockKey{c.lockID(fun.X), lockOwner(fun.X)}
			switch {
			case kind == acquire:
				if k.id != "" {
					c.addEdges(held, k.id, call.Pos())
				}
				held[k]++
			case !deferred && held[k] > 0:
				held[k]--
				if held[k] == 0 {
					delete(held, k)
				}
			}
			return
		}
		if strings.HasSuffix(fun.Sel.Name, "Locked") && isFunc(c.pass, fun.Sel) {
			c.checkLockedCall(call, held, types.ExprString(fun), types.ExprString(fun.X), true)
		}
	case *ast.Ident:
		if strings.HasSuffix(fun.Name, "Locked") && isFunc(c.pass, fun) {
			c.checkLockedCall(call, held, fun.Name, "", false)
		}
	}
}

func (c *checker) checkLockedCall(call *ast.CallExpr, held lockset, callee, recv string, hasRecv bool) {
	if c.selfLocked {
		return // the outermost non-Locked caller is the one checked
	}
	if satisfied(held, recv, hasRecv) {
		return
	}
	if c.idx.Allowed(call.Pos(), "locked") {
		return
	}
	c.pass.Reportf(call.Pos(), "%s called without holding a lock: *Locked functions require the caller to hold the guarding mutex on every path (or annotate with //lint:allow locked)", callee)
}

// satisfied reports whether the held lockset sanctions the *Locked call.
func satisfied(held lockset, recv string, hasRecv bool) bool {
	if len(held) == 0 {
		return false
	}
	if !hasRecv {
		return true // free function: any held lock passes
	}
	for k := range held {
		// A mutex reached through the same receiver expression, or a
		// package-level one (owner ""), which may guard any state.
		if k.owner == recv || k.owner == "" {
			return true
		}
	}
	return false
}

// lockOwner renders the expression owning a mutex: for s.mu.Lock() the
// owner is "s"; for a package-level pkgMu.Lock() it is "" (package
// scope), the wildcard owner.
func lockOwner(x ast.Expr) string {
	if sel, ok := x.(*ast.SelectorExpr); ok {
		return types.ExprString(sel.X)
	}
	return ""
}

// isFunc reports whether the callee is a function or method (not a
// field of function type being invoked through a conversion, etc.).
func isFunc(pass *analysis.Pass, id *ast.Ident) bool {
	_, ok := pass.TypesInfo.Uses[id].(*types.Func)
	return ok
}

func (s lockset) clone() lockset {
	out := make(lockset, len(s))
	for k, v := range s {
		out[k] = v
	}
	return out
}

// mergeAcquisitions folds a branch's lock state back into the outer state:
// counts only ever grow (an acquisition inside a branch counts as held
// afterwards; a release inside a branch does not unlock the code after it).
func (s lockset) mergeAcquisitions(branch lockset) {
	for k, v := range branch {
		if v > s[k] {
			s[k] = v
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
			if named, isNamed := deref(tv.Type).(*types.Named); isNamed && named.Obj().Pkg() != nil {
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
		named, isNamed := deref(v.Type()).(*types.Named)
		if !isNamed || named.Obj().Pkg() == nil {
			return ""
		}
		// Receiver ident with an embedded mutex: t.Lock() — name it by
		// the receiver's type.
		if _, isStruct := named.Underlying().(*types.Struct); isStruct {
			return named.Obj().Pkg().Path() + "." + named.Obj().Name() + ".Mutex"
		}
		// A local variable whose type IS the mutex.
		return v.Pkg().Path() + "." + c.fn + "." + v.Name()
	case *ast.IndexExpr:
		base := c.lockID(x.X)
		if base == "" {
			return ""
		}
		return base + "[i]"
	}
	return ""
}

func deref(t types.Type) types.Type {
	for {
		p, ok := t.(*types.Pointer)
		if !ok {
			return t
		}
		t = p.Elem()
	}
}

// addEdges records held -> to for every held mutex with an id, in id
// order; self-edges included, since re-acquiring a held Mutex deadlocks.
func (c *checker) addEdges(held lockset, to string, pos token.Pos) {
	froms := make([]string, 0, len(held))
	for k := range held {
		if k.id != "" {
			froms = append(froms, k.id)
		}
	}
	sort.Strings(froms)
	for _, from := range froms {
		c.addEdge(from, to, pos)
	}
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
