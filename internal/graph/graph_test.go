package graph

import (
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestEmptyGraph(t *testing.T) {
	g := NewBuilder(0).Build()
	if g.NumNodes() != 0 || g.NumEdges() != 0 {
		t.Fatalf("empty graph: n=%d m=%d", g.NumNodes(), g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBuilderBasic(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	b.AddEdge(3, 0)
	g := b.Build()
	if g.NumNodes() != 4 || g.NumEdges() != 4 {
		t.Fatalf("n=%d m=%d", g.NumNodes(), g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	for u := NodeID(0); u < 4; u++ {
		if g.Degree(u) != 2 {
			t.Fatalf("degree(%d)=%d want 2", u, g.Degree(u))
		}
	}
}

func TestBuilderDeduplicatesAndDropsSelfLoops(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 0) // duplicate in reverse direction
	b.AddEdge(0, 1) // duplicate
	b.AddEdge(2, 2) // self loop
	g := b.Build()
	if g.NumEdges() != 1 {
		t.Fatalf("m=%d want 1", g.NumEdges())
	}
	if g.Degree(2) != 0 {
		t.Fatalf("self loop kept: degree(2)=%d", g.Degree(2))
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

// Build consumes the builder's pairs, which become the graph's
// adjacency, and keeps its node count. So a builder that gains nodes and
// edges after a Build builds only the new edges, and the first graph must
// not change.
func TestBuilderUsableAfterBuild(t *testing.T) {
	r := rng.New(11)
	edges := make([][2]NodeID, 400)
	for i := range edges {
		edges[i] = [2]NodeID{NodeID(r.Intn(60)), NodeID(r.Intn(60))}
	}
	b := NewBuilder(50)
	for _, e := range edges[:200] {
		b.AddEdge(min(e[0], 49), min(e[1], 49))
	}
	first := b.Build()
	xadj, adj := slices.Clone(first.xadj), slices.Clone(first.adj)
	if again := b.Build(); again.NumNodes() != 50 || again.NumEdges() != 0 {
		t.Fatalf("a second Build with no new edges: n=%d m=%d, want n=50 m=0", again.NumNodes(), again.NumEdges())
	}
	b.Grow(60)
	for _, e := range edges[200:] {
		b.AddEdge(e[0], e[1])
	}
	again := b.Build()

	fresh := NewBuilder(60)
	for _, e := range edges[200:] {
		fresh.AddEdge(e[1], e[0])
	}
	want := fresh.Build()
	if !slices.Equal(again.xadj, want.xadj) || !slices.Equal(again.adj, want.adj) {
		t.Fatal("Build → AddEdge → Build differs from a fresh builder given only the new edges")
	}
	if !slices.Equal(first.xadj, xadj) || !slices.Equal(first.adj, adj) {
		t.Fatal("a second Build changed the graph the first one returned")
	}
}

func TestBuilderOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewBuilder(2).AddEdge(0, 5)
}

func TestHasEdge(t *testing.T) {
	g := FromEdges(4, [][2]NodeID{{0, 1}, {1, 2}})
	cases := []struct {
		u, v NodeID
		want bool
	}{{0, 1, true}, {1, 0, true}, {1, 2, true}, {0, 2, false}, {3, 0, false}}
	for _, c := range cases {
		if got := g.HasEdge(c.u, c.v); got != c.want {
			t.Errorf("HasEdge(%d,%d)=%v want %v", c.u, c.v, got, c.want)
		}
	}
}

func TestNeighborsSorted(t *testing.T) {
	g := FromEdges(5, [][2]NodeID{{2, 4}, {2, 0}, {2, 3}, {2, 1}})
	nbrs := g.Neighbors(2)
	if !sort.SliceIsSorted(nbrs, func(i, j int) bool { return nbrs[i] < nbrs[j] }) {
		t.Fatalf("adjacency not sorted: %v", nbrs)
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	g := BarabasiAlbert(200, 3, 1)
	edges := g.EdgeList()
	if len(edges) != g.NumEdges() {
		t.Fatalf("edge list length %d want %d", len(edges), g.NumEdges())
	}
	g2 := FromEdges(g.NumNodes(), edges)
	if g2.NumEdges() != g.NumEdges() {
		t.Fatalf("rebuild changed edge count")
	}
	for u := NodeID(0); u < NodeID(g.NumNodes()); u++ {
		if g.Degree(u) != g2.Degree(u) {
			t.Fatalf("degree mismatch at %d", u)
		}
	}
}

func TestMaxDegree(t *testing.T) {
	g := Star(10)
	d, u := g.MaxDegree()
	if d != 9 || u != 0 {
		t.Fatalf("MaxDegree = (%d, %d), want (9, 0)", d, u)
	}
}

// Validate and FromCSR share one layout check, so they agree on every
// malformed CSR; only Validate tests symmetry. Each case breaks the path
// 0-1-2 (xadj {0,1,3,4}, adj {1, 0,2, 1}).
func TestValidateAndFromCSRAgreeOnLayout(t *testing.T) {
	for _, c := range []struct {
		name         string
		xadj         []int64
		adj          []NodeID
		layoutBroken bool
	}{
		{"valid", []int64{0, 1, 3, 4}, []NodeID{1, 0, 2, 1}, false},
		{"arcs without offsets", nil, []NodeID{0}, true},
		{"endpoints", []int64{0, 1, 3, 3}, []NodeID{1, 0, 2, 1}, true},
		{"non-monotone offsets", []int64{0, 2, 1, 4}, []NodeID{1, 0, 2, 1}, true},
		{"offset past adj", []int64{0, 1, 9, 4}, []NodeID{1, 0, 2, 1}, true},
		{"arc out of range", []int64{0, 1, 3, 4}, []NodeID{1, 0, 3, 1}, true},
		{"self-loop", []int64{0, 1, 3, 4}, []NodeID{1, 0, 1, 1}, true},
		{"unsorted list", []int64{0, 1, 3, 4}, []NodeID{1, 2, 0, 1}, true},
		{"asymmetric", []int64{0, 1, 2, 2}, []NodeID{1, 2}, false},
	} {
		_, csrErr := FromCSR(slices.Clone(c.xadj), slices.Clone(c.adj))
		valErr := (&Graph{xadj: c.xadj, adj: c.adj}).Validate()
		if (csrErr != nil) != c.layoutBroken {
			t.Errorf("%s: FromCSR error %v, want one: %v", c.name, csrErr, c.layoutBroken)
		}
		if wantVal := c.layoutBroken || c.name == "asymmetric"; (valErr != nil) != wantVal {
			t.Errorf("%s: Validate error %v, want one: %v", c.name, valErr, wantVal)
		}
	}
}

func TestValidatePropertyRandomGraphs(t *testing.T) {
	f := func(seed uint64) bool {
		g := ErdosRenyi(50, 120, seed)
		return g.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestEdgesVisitsEachOnce(t *testing.T) {
	g := Mesh(5, 5)
	seen := map[[2]NodeID]int{}
	g.Edges(func(u, v NodeID) bool {
		if u >= v {
			t.Fatalf("Edges yielded non-canonical pair (%d,%d)", u, v)
		}
		seen[[2]NodeID{u, v}]++
		return true
	})
	if len(seen) != g.NumEdges() {
		t.Fatalf("visited %d edges want %d", len(seen), g.NumEdges())
	}
	for e, c := range seen {
		if c != 1 {
			t.Fatalf("edge %v visited %d times", e, c)
		}
	}
}

func TestEdgesEarlyStop(t *testing.T) {
	g := Complete(10)
	count := 0
	g.Edges(func(u, v NodeID) bool {
		count++
		return count < 5
	})
	if count != 5 {
		t.Fatalf("early stop failed: %d", count)
	}
}

// --- Random graph helpers shared by other tests in this package ---

func randomConnectedGraph(t *testing.T, n, m int, seed uint64) *Graph {
	t.Helper()
	g := ErdosRenyi(n, m, seed)
	// Connect with a random spanning path through all nodes.
	b := NewBuilder(n)
	g.Edges(func(u, v NodeID) bool { b.AddEdge(u, v); return true })
	perm := rng.New(seed ^ 0xabcdef).Perm(n)
	for i := 0; i+1 < n; i++ {
		b.AddEdge(NodeID(perm[i]), NodeID(perm[i+1]))
	}
	return b.Build()
}

func TestRandomConnectedGraphHelper(t *testing.T) {
	g := randomConnectedGraph(t, 100, 50, 7)
	if !g.IsConnected() {
		t.Fatal("helper produced disconnected graph")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}
