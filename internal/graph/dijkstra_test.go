package graph

import (
	"container/heap"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

type heapItem struct {
	node NodeID
	dist int64
}

type distHeap []heapItem

func (h distHeap) Len() int            { return len(h) }
func (h distHeap) Less(i, j int) bool  { return h[i].dist < h[j].dist }
func (h distHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *distHeap) Push(x interface{}) { *h = append(*h, x.(heapItem)) }
func (h *distHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// Dijkstra computes single-source shortest path distances from src.
// Unreachable nodes get InfDist. It is the binary-heap reference the
// package's kernels are diffed against: the core searches of
// CoreTable.Fill and the core-table rows of CoreTable.Row.
func (g *Weighted) Dijkstra(src NodeID) []int64 {
	dist := make([]int64, g.NumNodes())
	g.DijkstraInto(src, dist)
	return dist
}

// DijkstraInto runs Dijkstra from src, overwriting the caller's dist (len
// NumNodes; unreachable nodes get InfDist), and returns the weighted
// eccentricity of src within its component (0 if src is isolated).
func (g *Weighted) DijkstraInto(src NodeID, dist []int64) int64 {
	for i := range dist {
		dist[i] = InfDist
	}
	h := make(distHeap, 0, 64)
	dist[src] = 0
	heap.Push(&h, heapItem{src, 0})
	var ecc int64
	for h.Len() > 0 {
		it := heap.Pop(&h).(heapItem)
		if it.dist > dist[it.node] {
			continue // stale entry
		}
		if it.dist > ecc {
			ecc = it.dist
		}
		nbrs, ws := g.Neighbors(it.node)
		for i, v := range nbrs {
			nd := it.dist + int64(ws[i])
			if nd < dist[v] {
				dist[v] = nd
				heap.Push(&h, heapItem{v, nd})
			}
		}
	}
	return ecc
}

// DiameterExhaustiveWeighted computes the exact weighted diameter by
// running Dijkstra from every node. O(n·m log n): for small graphs; use
// ExactDiameterWeighted for larger ones.
func (g *Weighted) DiameterExhaustiveWeighted() int64 {
	n := g.NumNodes()
	dist := make([]int64, n)
	var diam int64
	for u := 0; u < n; u++ {
		if e := g.DijkstraInto(NodeID(u), dist); e > diam {
			diam = e
		}
	}
	return diam
}

func unitWeighted(g *Graph) *Weighted { return weightedBy(g, func() int32 { return 1 }) }

func TestDijkstraMatchesBFSOnUnitWeights(t *testing.T) {
	f := func(seed uint64) bool {
		g := randomConnectedGraph(t, 60, 100, seed)
		wg := unitWeighted(g)
		src := NodeID(int(seed % 60))
		bfs := g.BFS(src)
		dij := wg.Dijkstra(src)
		for u := range bfs {
			if int64(bfs[u]) != dij[u] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestDijkstraWeightedPath(t *testing.T) {
	// 0 -5- 1 -2- 2 -7- 3
	wg := MustWeighted(4, [][2]NodeID{{0, 1}, {1, 2}, {2, 3}}, []int32{5, 2, 7})
	dist := wg.Dijkstra(0)
	want := []int64{0, 5, 7, 14}
	for u, d := range want {
		if dist[u] != d {
			t.Fatalf("dist[%d]=%d want %d", u, dist[u], d)
		}
	}
}

func TestDijkstraPrefersLightPath(t *testing.T) {
	// Direct heavy edge 0-2 (10) vs light detour 0-1-2 (2+3).
	wg := MustWeighted(3, [][2]NodeID{{0, 2}, {0, 1}, {1, 2}}, []int32{10, 2, 3})
	dist := wg.Dijkstra(0)
	if dist[2] != 5 {
		t.Fatalf("dist[2]=%d want 5", dist[2])
	}
}

func TestDijkstraUnreachable(t *testing.T) {
	wg := MustWeighted(3, [][2]NodeID{{0, 1}}, []int32{4})
	dist := wg.Dijkstra(0)
	if dist[2] != InfDist {
		t.Fatalf("unreachable node should be InfDist, got %d", dist[2])
	}
}

func TestNewWeightedKeepsMinimumDuplicate(t *testing.T) {
	wg := MustWeighted(2, [][2]NodeID{{0, 1}, {1, 0}, {0, 1}}, []int32{9, 4, 6})
	if wg.NumEdges() != 1 {
		t.Fatalf("m=%d want 1", wg.NumEdges())
	}
	if d := wg.Dijkstra(0)[1]; d != 4 {
		t.Fatalf("kept weight %d want 4", d)
	}
}

func TestNewWeightedRejectsBadInput(t *testing.T) {
	if _, err := NewWeighted(3, [][2]NodeID{{0, 1}}, nil); err == nil {
		t.Fatal("edge/weight length mismatch should fail")
	}
	if _, err := NewWeighted(3, [][2]NodeID{{0, 1}}, []int32{0}); err == nil {
		t.Fatal("zero weight should fail")
	}
	if _, err := NewWeighted(3, [][2]NodeID{{0, 1}}, []int32{-4}); err == nil {
		t.Fatal("negative weight should fail")
	}
	if _, err := NewWeighted(3, [][2]NodeID{{0, 3}}, []int32{1}); err == nil {
		t.Fatal("out-of-range endpoint should fail")
	}
	if wg, err := NewWeighted(0, nil, nil); err != nil || wg.NumNodes() != 0 {
		t.Fatalf("empty graph should build: %v", err)
	}
}

func TestWeightedUnweightedRoundTrip(t *testing.T) {
	g := Mesh(6, 6)
	wg := unitWeighted(g)
	g2 := wg.Topology()
	if g2.NumEdges() != g.NumEdges() || g2.NumNodes() != g.NumNodes() {
		t.Fatal("round trip changed graph size")
	}
	if err := g2.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestExactDiameterWeightedMatchesExhaustive(t *testing.T) {
	r := rng.New(17)
	for trial := 0; trial < 15; trial++ {
		g := randomConnectedGraph(t, 40, 70, uint64(trial))
		edges := g.EdgeList()
		w := make([]int32, len(edges))
		for i := range w {
			w[i] = int32(1 + r.Intn(9))
		}
		wg := MustWeighted(g.NumNodes(), edges, w)
		want := wg.DiameterExhaustiveWeighted()
		got, exact := wg.ExactDiameterWeighted(0)
		if !exact || got != want {
			t.Fatalf("trial %d: weighted iFUB (%d,%v) want (%d,true)", trial, got, exact, want)
		}
	}
}

func TestExactDiameterWeightedUnitMatchesUnweighted(t *testing.T) {
	g := RoadLike(20, 20, 0.4, 2)
	wg := unitWeighted(g)
	want, _ := g.ExactDiameter(0)
	got, exact := wg.ExactDiameterWeighted(0)
	if !exact || got != int64(want) {
		t.Fatalf("unit weighted diameter (%d,%v) want (%d,true)", got, exact, want)
	}
}

// TestWeightedEccentricity checks the eccentricity DijkstraInto returns
// beside its distances, from an end and from an inner node of a weighted
// path.
func TestWeightedEccentricity(t *testing.T) {
	wg := MustWeighted(4, [][2]NodeID{{0, 1}, {1, 2}, {2, 3}}, []int32{5, 2, 7})
	dist := make([]int64, wg.NumNodes())
	if e := wg.DijkstraInto(0, dist); e != 14 {
		t.Fatalf("ecc=%d want 14", e)
	}
	if e := wg.DijkstraInto(2, dist); e != 7 {
		t.Fatalf("ecc=%d want 7", e)
	}
}
