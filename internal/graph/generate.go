package graph

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/rng"
)

// Synthetic graph generators. These provide the datasets for the
// experimental reproduction (expt.Datasets maps them to the paper's
// benchmark graphs) plus small structured graphs for tests.
// All generators are deterministic functions of their parameters, and each
// reserves the edges it adds (newBuilderFor), exactly or, where it draws
// duplicates or self-loops to be dropped, the number of draws.

// Path returns the path graph on n nodes (diameter n-1).
func Path(n int) *Graph {
	b := newBuilderFor(n, max(n-1, 0))
	for i := 0; i+1 < n; i++ {
		b.AddEdge(NodeID(i), NodeID(i+1))
	}
	return b.Build()
}

// Cycle returns the cycle on n nodes (n >= 3).
func Cycle(n int) *Graph {
	if n < 3 {
		panic("graph: cycle needs n >= 3")
	}
	b := newBuilderFor(n, n)
	for i := 0; i < n; i++ {
		b.AddEdge(NodeID(i), NodeID((i+1)%n))
	}
	return b.Build()
}

// Star returns the star with one hub (node 0) and n-1 leaves.
func Star(n int) *Graph {
	b := newBuilderFor(n, max(n-1, 0))
	for i := 1; i < n; i++ {
		b.AddEdge(0, NodeID(i))
	}
	return b.Build()
}

// Complete returns the complete graph K_n.
func Complete(n int) *Graph {
	b := newBuilderFor(n, n*max(n-1, 0)/2)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			b.AddEdge(NodeID(i), NodeID(j))
		}
	}
	return b.Build()
}

// BinaryTree returns the complete binary tree on n nodes (heap indexing).
func BinaryTree(n int) *Graph {
	b := newBuilderFor(n, max(n-1, 0))
	for i := 1; i < n; i++ {
		b.AddEdge(NodeID(i), NodeID((i-1)/2))
	}
	return b.Build()
}

// Mesh returns the w x h grid graph. Node (x, y) has id y*w + x.
// Its diameter is (w-1) + (h-1) and its doubling dimension is the constant
// 2, which makes it the paper's "provably effective" benchmark (mesh1000).
func Mesh(w, h int) *Graph {
	if w < 1 || h < 1 {
		panic("graph: mesh dimensions must be positive")
	}
	b := newBuilderFor(w*h, (w-1)*h+w*(h-1))
	id := func(x, y int) NodeID { return NodeID(y*w + x) }
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if x+1 < w {
				b.AddEdge(id(x, y), id(x+1, y))
			}
			if y+1 < h {
				b.AddEdge(id(x, y), id(x, y+1))
			}
		}
	}
	return b.Build()
}

// ErdosRenyi returns a G(n, m)-style random graph with exactly m distinct
// edges (or fewer if m exceeds the number of possible edges).
func ErdosRenyi(n, m int, seed uint64) *Graph {
	maxEdges := int64(n) * int64(n-1) / 2
	if int64(m) > maxEdges {
		m = int(maxEdges)
	}
	r := rng.New(seed)
	b := newBuilderFor(n, m)
	seen := make(map[uint64]bool, m)
	for len(seen) < m {
		u := NodeID(r.Intn(n))
		v := NodeID(r.Intn(n))
		if u == v {
			continue
		}
		key := packPair(u, v)
		if seen[key] {
			continue
		}
		seen[key] = true
		b.AddEdge(u, v)
	}
	return b.Build()
}

// BarabasiAlbert returns a preferential-attachment graph: nodes arrive one
// at a time and connect to mPer existing nodes chosen proportionally to
// degree. The result is connected, has heavy-tailed degrees and a small
// diameter — the stand-in for the paper's social-network datasets.
func BarabasiAlbert(n, mPer int, seed uint64) *Graph {
	if mPer < 1 {
		panic("graph: BarabasiAlbert needs mPer >= 1")
	}
	if n < mPer+1 {
		panic("graph: BarabasiAlbert needs n > mPer")
	}
	r := rng.New(seed)
	b := newBuilderFor(n, mPer*(mPer+1)/2+(n-mPer-1)*mPer)
	// targets holds each node once per unit of degree; sampling uniformly
	// from it is preferential attachment.
	targets := make([]NodeID, 0, 2*mPer*n)
	// Seed clique on mPer+1 nodes.
	for i := 0; i <= mPer; i++ {
		for j := i + 1; j <= mPer; j++ {
			b.AddEdge(NodeID(i), NodeID(j))
			targets = append(targets, NodeID(i), NodeID(j))
		}
	}
	// Track picks in insertion order (map iteration order would make the
	// generator nondeterministic); mPer is small, so linear scans are fine.
	picked := make([]NodeID, 0, mPer)
	for u := mPer + 1; u < n; u++ {
		picked = picked[:0]
		for len(picked) < mPer {
			t := targets[r.Intn(len(targets))]
			dup := false
			for _, p := range picked {
				if p == t {
					dup = true
					break
				}
			}
			if !dup {
				picked = append(picked, t)
			}
		}
		for _, t := range picked {
			b.AddEdge(NodeID(u), t)
			targets = append(targets, NodeID(u), t)
		}
	}
	return b.Build()
}

// RMAT returns an R-MAT (recursive matrix) random graph with 2^scale nodes
// and approximately edgeFactor * 2^scale undirected edges, using the
// standard (a, b, c, d) = (0.57, 0.19, 0.19, 0.05) partition probabilities.
// Duplicates and self-loops are dropped, so the realized edge count is
// somewhat lower. The graph may be disconnected; callers that need
// connectivity should take the LargestComponent.
func RMAT(scale, edgeFactor int, seed uint64) *Graph {
	n := 1 << scale
	r := rng.New(seed)
	const a, bb, c = 0.57, 0.19, 0.19
	samples := edgeFactor * n
	b := newBuilderFor(n, samples) // a draw is added unless it is a self-loop
	for i := 0; i < samples; i++ {
		var u, v int
		for bit := scale - 1; bit >= 0; bit-- {
			p := r.Float64()
			switch {
			case p < a:
				// top-left: nothing set
			case p < a+bb:
				v |= 1 << bit
			case p < a+bb+c:
				u |= 1 << bit
			default:
				u |= 1 << bit
				v |= 1 << bit
			}
		}
		if u != v {
			b.AddEdge(NodeID(u), NodeID(v))
		}
	}
	return b.Build()
}

// RandomRegular returns an (approximately) d-regular random graph via the
// configuration model: n*d stubs are shuffled and paired; self-loops and
// duplicate edges are discarded, so a few nodes may have degree slightly
// below d. For d >= 3 the result is an expander and connected with high
// probability; callers that require connectivity should take the
// LargestComponent.
func RandomRegular(n, d int, seed uint64) *Graph {
	if n*d%2 != 0 {
		panic("graph: RandomRegular needs n*d even")
	}
	r := rng.New(seed)
	stubs := make([]NodeID, n*d)
	for i := range stubs {
		stubs[i] = NodeID(i / d)
	}
	// Fisher-Yates shuffle.
	for i := len(stubs) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		stubs[i], stubs[j] = stubs[j], stubs[i]
	}
	b := newBuilderFor(n, len(stubs)/2)
	for i := 0; i+1 < len(stubs); i += 2 {
		b.AddEdge(stubs[i], stubs[i+1]) // Builder drops self-loops/dups
	}
	return b.Build()
}

// ExpanderPath builds the paper's Section 3 example: a constant-degree
// expander on n - tail nodes with a path of length tail attached. If tail
// is 0, sqrt(n) is used. Cluster decompositions of this graph have maximum
// radius polylogarithmic in n while its diameter is Ω(tail).
func ExpanderPath(n, tail int, seed uint64) *Graph {
	if tail <= 0 {
		tail = int(math.Sqrt(float64(n)))
	}
	core := n - tail
	if core < 4 {
		panic("graph: ExpanderPath core too small")
	}
	if core%2 == 1 {
		core, tail = core-1, tail+1 // keep core*3 even
	}
	exp := RandomRegular(core, 3, seed)
	exp, _ = exp.LargestComponent()
	nc := exp.NumNodes()
	b := newBuilderFor(nc+tail, exp.NumEdges()+tail)
	exp.Edges(func(u, v NodeID) bool {
		b.AddEdge(u, v)
		return true
	})
	prev := NodeID(0) // attach the path to node 0 of the expander
	for i := 0; i < tail; i++ {
		next := NodeID(nc + i)
		b.AddEdge(prev, next)
		prev = next
	}
	return b.Build()
}

// RoadLike returns a long-diameter, nearly planar, bounded-degree graph
// resembling a road network: a w x h grid whose non-tree edges are kept
// with probability keepFrac (a random spanning tree is always kept, so the
// graph stays connected). keepFrac around 0.3-0.5 yields diameters a small
// multiple of w+h, mimicking the paper's road datasets.
func RoadLike(w, h int, keepFrac float64, seed uint64) *Graph {
	if w < 2 || h < 2 {
		panic("graph: RoadLike dimensions too small")
	}
	n := w * h
	r := rng.New(seed)
	id := func(x, y int) NodeID { return NodeID(y*w + x) }

	// Random spanning tree via randomized DFS (maze generation): parent[v]
	// is the node that reached v (the root its own), -1 while unvisited.
	parent := make([]NodeID, n)
	for i := range parent {
		parent[i] = -1
	}
	type pos struct{ x, y int }
	stack := []pos{{0, 0}}
	parent[0] = 0
	dirs := [4][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		// Collect unvisited neighbors.
		var cand []pos
		for _, d := range dirs {
			nx, ny := cur.x+d[0], cur.y+d[1]
			if nx >= 0 && nx < w && ny >= 0 && ny < h && parent[id(nx, ny)] < 0 {
				cand = append(cand, pos{nx, ny})
			}
		}
		if len(cand) == 0 {
			stack = stack[:len(stack)-1]
			continue
		}
		next := cand[r.Intn(len(cand))]
		parent[id(next.x, next.y)] = id(cur.x, cur.y)
		stack = append(stack, next)
	}

	// Keep each remaining grid edge with probability keepFrac, drawing a
	// coin for every grid edge in row-major order, tree edges included.
	// The walk runs twice from the same generator state, first to count
	// the kept non-tree edges so that the builder is reserved exactly.
	keeps := func(r rng.RNG, add func(u, v NodeID)) {
		edge := func(u, v NodeID) {
			if r.Bernoulli(keepFrac) && parent[u] != v && parent[v] != u {
				add(u, v)
			}
		}
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				if x+1 < w {
					edge(id(x, y), id(x+1, y))
				}
				if y+1 < h {
					edge(id(x, y), id(x, y+1))
				}
			}
		}
	}
	kept := 0
	keeps(*r, func(NodeID, NodeID) { kept++ })
	b := newBuilderFor(n, n-1+kept)
	for v, p := range parent {
		b.AddEdge(NodeID(v), p) // the root's self-loop is dropped
	}
	keeps(*r, b.AddEdge)
	return b.Build()
}

// WattsStrogatz returns a small-world graph: a ring lattice where every
// node connects to its k nearest neighbors (k even), with each edge
// rewired to a random endpoint with probability beta. Low beta keeps the
// lattice's long diameter; moderate beta collapses it to O(log n) — a
// useful dataset family for studying how the decomposition's advantage
// degrades as a graph transitions from the road regime to the social one.
func WattsStrogatz(n, k int, beta float64, seed uint64) *Graph {
	if k < 2 || k%2 != 0 {
		panic("graph: WattsStrogatz needs even k >= 2")
	}
	if n <= k {
		panic("graph: WattsStrogatz needs n > k")
	}
	r := rng.New(seed)
	b := newBuilderFor(n, n*(k/2))
	for u := 0; u < n; u++ {
		for j := 1; j <= k/2; j++ {
			v := (u + j) % n
			if r.Bernoulli(beta) {
				// Rewire: random endpoint avoiding self-loops; the builder
				// deduplicates collisions with existing edges.
				v = r.Intn(n)
				if v == u {
					v = (u + 1) % n
				}
			}
			b.AddEdge(NodeID(u), NodeID(v))
		}
	}
	return b.Build()
}

// AppendTail returns a copy of g with a path of tailLen new nodes attached
// to anchor, the modification used by the paper's Figure 1 experiment to
// inflate the diameter without altering the base structure. The new nodes
// get ids n, n+1, ..., n+tailLen-1.
func AppendTail(g *Graph, anchor NodeID, tailLen int) *Graph {
	n := g.NumNodes()
	if anchor < 0 || int(anchor) >= n {
		panic(fmt.Sprintf("graph: tail anchor %d out of range", anchor))
	}
	b := newBuilderFor(n+tailLen, g.NumEdges()+tailLen)
	g.Edges(func(u, v NodeID) bool {
		b.AddEdge(u, v)
		return true
	})
	prev := anchor
	for i := 0; i < tailLen; i++ {
		next := NodeID(n + i)
		b.AddEdge(prev, next)
		prev = next
	}
	return b.Build()
}

// GenerateSpecs lists the generator specs Generate accepts.
const GenerateSpecs = "mesh:WxH | road:WxH[:keep] | ba:N[:deg] | rmat:SCALE[:deg] | er:N[:deg] | expanderpath:N"

// Generate builds the graph a generator spec names, drawing from seed:
//
//	mesh:WxH          Mesh(W, H): W, H >= 1
//	road:WxH[:keep]   RoadLike(W, H, keep): W, H >= 2; keep [0.4]
//	ba:N[:deg]        BarabasiAlbert(N, deg): N >= 2 [100000], 1 <= deg < N [8]
//	rmat:SCALE[:deg]  RMAT(SCALE, deg): 0 <= SCALE <= 31 [16], deg >= 0 [8]
//	er:N[:deg]        ErdosRenyi(N, N·deg/2): N >= 0 [100000], deg >= 0 [8]
//	expanderpath:N    ExpanderPath(N, 0): N >= 6 [100000]
//
// An omitted argument takes the default in brackets; keep lies in [0, 1].
// No count may exceed 2³¹ − 1, nor a grid 2³¹ nodes, and no spec may carry
// more arguments than its kind reads. Generate is the one gate between a
// spec from outside the program and the generators, which panic outside
// these ranges: a spec outside them, or one that does not parse, is an
// error naming it.
func Generate(spec string, seed uint64) (*Graph, error) {
	parts := strings.Split(spec, ":")
	kind := parts[0]
	var argErr error
	fail := func(format string, args ...any) {
		if argErr == nil {
			argErr = fmt.Errorf(format, args...)
		}
	}
	// argInt reads argument i (def when absent), which must lie in [lo, hi].
	argInt := func(i, def, lo, hi int) int {
		v := def
		if len(parts) > i {
			var err error
			if v, err = strconv.Atoi(parts[i]); err != nil {
				fail("bad argument %q", parts[i])
			}
		}
		if v < lo || v > hi {
			fail("%s needs argument %d in [%d, %d], got %d", kind, i, lo, hi, v)
		}
		return v
	}
	// dims reads argument 1, WxH, neither side below lo.
	dims := func(lo int) (w, h int) {
		if len(parts) < 2 {
			fail("%s needs WxH (e.g. %s:500x500)", kind, kind)
			return 0, 0
		}
		ws, hs, _ := strings.Cut(parts[1], "x")
		w, err1 := strconv.Atoi(ws)
		h, err2 := strconv.Atoi(hs)
		if err1 != nil || err2 != nil || w < lo || h < lo || w > maxNodes/h {
			fail("bad dimensions %q: %s needs each side >= %d and at most %d nodes", parts[1], kind, lo, maxNodes)
		}
		return w, h
	}
	var build func() *Graph
	arity := 2 // arguments the kind reads
	switch kind {
	case "mesh":
		arity = 1
		w, h := dims(1)
		build = func() *Graph { return Mesh(w, h) }
	case "road":
		w, h := dims(2)
		keep := 0.4
		if len(parts) > 2 {
			var err error
			if keep, err = strconv.ParseFloat(parts[2], 64); err != nil {
				fail("bad argument %q", parts[2])
			} else if !(keep >= 0 && keep <= 1) { // NaN fails both
				fail("road needs keep in [0, 1], got %s", parts[2])
			}
		}
		build = func() *Graph { return RoadLike(w, h, keep, seed) }
	case "ba":
		n := argInt(1, 100000, 2, math.MaxInt32)
		deg := argInt(2, 8, 1, n-1)
		build = func() *Graph { return BarabasiAlbert(n, deg, seed) }
	case "rmat":
		scale, deg := argInt(1, 16, 0, 31), argInt(2, 8, 0, math.MaxInt32)
		build = func() *Graph { return RMAT(scale, deg, seed) }
	case "er":
		n, deg := argInt(1, 100000, 0, math.MaxInt32), argInt(2, 8, 0, math.MaxInt32)
		build = func() *Graph { return ErdosRenyi(n, n*deg/2, seed) }
	case "expanderpath":
		arity = 1
		n := argInt(1, 100000, 6, math.MaxInt32) // an expander core of 4 beside its path
		build = func() *Graph { return ExpanderPath(n, 0, seed) }
	default:
		return nil, fmt.Errorf("graph: unknown generator %q in %q (want %s)", kind, spec, GenerateSpecs)
	}
	if len(parts) > arity+1 {
		fail("too many arguments for %s: %d, at most %d", kind, len(parts)-1, arity)
	}
	if argErr != nil {
		return nil, fmt.Errorf("graph: generator %q: %w", spec, argErr)
	}
	return build(), nil
}
