package graph

import (
	"maps"
	"runtime"
	"slices"
	"testing"

	"repro/internal/rng"
)

// naiveCSR is the canonical layout computed the plain way, independent of
// layoutCSR: each node's neighbour set, self-loops dropped, sorted. With
// weights it is the weighted layout, each pair carrying its least weight.
func naiveCSR(n int, edges [][2]NodeID, weights []int32) (xadj []int64, adj []NodeID, w []int32) {
	nbrs := make([]map[NodeID]int32, n)
	for i, e := range edges {
		if e[0] == e[1] {
			continue
		}
		wt := int32(1)
		if weights != nil {
			wt = weights[i]
		}
		for _, a := range [2][2]NodeID{e, {e[1], e[0]}} {
			if nbrs[a[0]] == nil {
				nbrs[a[0]] = map[NodeID]int32{}
			}
			if old, ok := nbrs[a[0]][a[1]]; !ok || wt < old {
				nbrs[a[0]][a[1]] = wt
			}
		}
	}
	xadj = make([]int64, n+1)
	for u, set := range nbrs {
		for _, v := range slices.Sorted(maps.Keys(set)) {
			adj = append(adj, v)
			if weights != nil {
				w = append(w, set[v])
			}
		}
		xadj[u+1] = int64(len(adj))
	}
	return xadj, adj, w
}

// edgeShape is a node count and an edge list: repeats, both orientations
// and self-loops included.
type edgeShape struct {
	name  string
	n     int
	edges [][2]NodeID
}

// fillShapes are the inputs the in-place fill must lay out as naiveCSR
// does: no edges, isolated tail nodes, all-upper and all-lower lists (a
// star centred at node 0 and one at node n−1), duplicates and self-loops,
// a complete graph, random edge sets and the generators' graphs.
func fillShapes() []edgeShape {
	r := rng.New(7)
	// scrambled returns edges in random order and orientation, a third of
	// them twice.
	scrambled := func(edges [][2]NodeID) [][2]NodeID {
		var out [][2]NodeID
		for _, e := range edges {
			out = append(out, e)
			if r.Intn(3) == 0 {
				out = append(out, e)
			}
		}
		for i := range out {
			j := r.Intn(i + 1)
			out[i], out[j] = out[j], out[i]
			if r.Intn(2) == 0 {
				out[i] = [2]NodeID{out[i][1], out[i][0]}
			}
		}
		return out
	}
	random := func(n, m int) [][2]NodeID {
		edges := make([][2]NodeID, m)
		for i := range edges {
			edges[i] = [2]NodeID{NodeID(r.Intn(n)), NodeID(r.Intn(n))}
		}
		return edges
	}
	star := func(n int, centre NodeID) [][2]NodeID {
		var edges [][2]NodeID
		for v := NodeID(0); v < NodeID(n); v++ {
			if v != centre {
				edges = append(edges, [2]NodeID{centre, v})
			}
		}
		return scrambled(edges)
	}
	edgesOf := func(g *Graph) [][2]NodeID {
		var edges [][2]NodeID
		g.Edges(func(u, v NodeID) bool {
			edges = append(edges, [2]NodeID{u, v})
			return true
		})
		return scrambled(edges)
	}
	shapes := []edgeShape{
		{"empty", 0, nil},
		{"no edges", 7, nil},
		{"one edge", 2, [][2]NodeID{{1, 0}}},
		{"isolated tail", 25, random(10, 40)},
		{"star at 0", 40, star(40, 0)},
		{"star at n-1", 40, star(40, 39)},
		{"duplicates and self-loops", 20, append(random(20, 300), [2]NodeID{3, 3}, [2]NodeID{0, 0}, [2]NodeID{19, 19})},
		{"complete", 30, edgesOf(Complete(30))},
		{"road", 900, edgesOf(RoadLike(30, 30, 0.4, 1))},
		{"rmat", 1024, edgesOf(RMAT(10, 8, 1))},
		{"mesh", 300, edgesOf(Mesh(20, 15))},
	}
	for i := range 50 {
		n := 1 + r.Intn(60)
		shapes = append(shapes, edgeShape{"random", n, random(n, r.Intn(4*n+i))})
	}
	return shapes
}

// Builder.Build and NewWeighted share one in-place fill; both must lay out
// exactly what the naive per-node sets give, and NewWeighted must keep the
// least weight of a repeated pair on both of its arcs.
func TestFillCSRMatchesNaiveLayout(t *testing.T) {
	r := rng.New(9)
	for _, s := range fillShapes() {
		span := 0
		for _, e := range s.edges {
			span = max(span, int(e[0])+1, int(e[1])+1)
		}
		b := NewBuilder(span)
		for _, e := range s.edges {
			b.AddEdge(e[0], e[1])
		}
		b.Grow(s.n)
		g := b.Build()
		xadj, adj, _ := naiveCSR(s.n, s.edges, nil)
		if !slices.Equal(g.xadj, xadj) || !slices.Equal(g.adj, adj) {
			t.Fatalf("%s (n=%d, %d edges): Build's CSR differs from the naive layout", s.name, s.n, len(s.edges))
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}

		weights := make([]int32, len(s.edges))
		for i := range weights {
			weights[i] = int32(1 + r.Intn(5))
		}
		wg, err := NewWeighted(s.n, s.edges, weights)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		xadj, adj, w := naiveCSR(s.n, s.edges, weights)
		if !slices.Equal(wg.xadj, xadj) || !slices.Equal(wg.adj, adj) || !slices.Equal(wg.w, w) {
			t.Fatalf("%s (n=%d, %d edges): NewWeighted's CSR differs from the naive layout", s.name, s.n, len(s.edges))
		}
	}
}

// Build lays the adjacency out inside the builder's pair buffer, so
// beside the offsets (8 bytes a node, plus one) and the lower-degree
// count (4 bytes a node) it allocates a small constant: no second
// adjacency (8 bytes an edge) and no cursor copy of the offsets.
func TestBuildAllocsPinned(t *testing.T) {
	const n, m = 50_000, 200_000
	r := rng.New(3)
	b := NewBuilder(n)
	for range m {
		b.AddEdge(NodeID(r.Intn(n)), NodeID(r.Intn(n)))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	g := b.Build()
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	bound := uint64(8*(n+1) + 4*n + 16<<10)
	t.Logf("n=%d m=%d: Build allocated %d bytes, bound %d", g.NumNodes(), g.NumEdges(), got, bound)
	if got > bound {
		t.Fatalf("Build of %d edges allocated %d bytes, want <= offsets + lower degrees + 16 KiB = %d", g.NumEdges(), got, bound)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}
