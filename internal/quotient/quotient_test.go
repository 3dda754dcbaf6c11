package quotient_test

import (
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/quotient"
)

func clusterOf(t *testing.T, g *graph.Graph, tau int) *core.Clustering {
	t.Helper()
	cl, err := core.ClusterContext(t.Context(), g, tau, core.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

func TestBuildBasic(t *testing.T) {
	// Path 0-1-2-3 with clusters {0,1} and {2,3}: quotient is a single edge.
	g := graph.Path(4)
	owner := []graph.NodeID{0, 0, 1, 1}
	q, err := quotient.Build(g, owner, 2)
	if err != nil {
		t.Fatal(err)
	}
	if q.NumNodes() != 2 || q.NumEdges() != 1 {
		t.Fatalf("quotient n=%d m=%d want 2,1", q.NumNodes(), q.NumEdges())
	}
}

func TestBuildNoSelfLoops(t *testing.T) {
	g := graph.Complete(5)
	owner := []graph.NodeID{0, 0, 0, 0, 0}
	q, err := quotient.Build(g, owner, 1)
	if err != nil {
		t.Fatal(err)
	}
	if q.NumEdges() != 0 {
		t.Fatal("intra-cluster edges must not appear in the quotient")
	}
}

func TestBuildInvalidOwner(t *testing.T) {
	g := graph.Path(3)
	if _, err := quotient.Build(g, []graph.NodeID{0, 5, 0}, 2); err == nil {
		t.Fatal("out-of-range owner should fail")
	}
	if _, err := quotient.Build(g, []graph.NodeID{0, 0}, 1); err == nil {
		t.Fatal("short owner slice should fail")
	}
	// BuildWeighted promises weights: a nil dist is a length mismatch there,
	// not Contract's request for unit weights.
	if _, _, err := quotient.BuildWeighted(g, []graph.NodeID{0, 0, 1}, nil, 2); err == nil {
		t.Fatal("nil dist should fail")
	}
}

func TestBuildWeightedWeights(t *testing.T) {
	// Path 0-1-2-3-4-5; clusters A={0,1,2} centered at 0, B={3,4,5}
	// centered at 5. The only crossing edge is (2,3):
	// weight = dist[2] + 1 + dist[3] = 2 + 1 + 2 = 5.
	g := graph.Path(6)
	owner := []graph.NodeID{0, 0, 0, 1, 1, 1}
	dist := []int32{0, 1, 2, 2, 1, 0}
	q, wq, err := quotient.BuildWeighted(g, owner, dist, 2)
	if err != nil {
		t.Fatal(err)
	}
	if q.NumEdges() != 1 || wq.NumEdges() != 1 {
		t.Fatal("expected a single quotient edge")
	}
	if d := wq.Dijkstra(0)[1]; d != 5 {
		t.Fatalf("quotient weight %d want 5", d)
	}
}

func TestBuildWeightedTakesMinCrossingEdge(t *testing.T) {
	// Two clusters joined by two crossing edges with different depth sums.
	//    0 - 1   cluster 0: {0 (center), 1}
	//    |   |
	//    2 - 3   cluster 1: {2 (center), 3}
	g := graph.FromEdges(4, [][2]graph.NodeID{{0, 1}, {0, 2}, {1, 3}, {2, 3}})
	owner := []graph.NodeID{0, 0, 1, 1}
	dist := []int32{0, 1, 0, 1}
	_, wq, err := quotient.BuildWeighted(g, owner, dist, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Crossing edges: (0,2) weight 0+1+0=1 and (1,3) weight 1+1+1=3.
	if d := wq.Dijkstra(0)[1]; d != 1 {
		t.Fatalf("min crossing weight %d want 1", d)
	}
}

func TestQuotientDiameterLowerBoundsGraphDiameter(t *testing.T) {
	for _, g := range []*graph.Graph{
		graph.Mesh(30, 30),
		graph.RoadLike(25, 25, 0.4, 2),
		graph.BarabasiAlbert(1500, 3, 3),
	} {
		cl := clusterOf(t, g, 4)
		q, err := quotient.Build(g, cl.Owner, cl.NumClusters())
		if err != nil {
			t.Fatal(err)
		}
		qd, exact := q.ExactDiameter(0)
		if !exact {
			t.Fatal("quotient diameter not exact")
		}
		gd, _ := g.ExactDiameter(0)
		if int64(qd) > int64(gd) {
			t.Fatalf("quotient diameter %d exceeds graph diameter %d", qd, gd)
		}
	}
}

func TestQuotientConnectedWhenGraphConnected(t *testing.T) {
	g := graph.Mesh(25, 25)
	cl := clusterOf(t, g, 8)
	q, err := quotient.Build(g, cl.Owner, cl.NumClusters())
	if err != nil {
		t.Fatal(err)
	}
	if !q.IsConnected() {
		t.Fatal("quotient of a connected graph must be connected")
	}
}

func TestBuildWeightedUnweightedTopologiesAgree(t *testing.T) {
	g := graph.RoadLike(20, 20, 0.5, 7)
	cl := clusterOf(t, g, 4)
	q1, err := quotient.Build(g, cl.Owner, cl.NumClusters())
	if err != nil {
		t.Fatal(err)
	}
	q2, wq, err := quotient.BuildWeighted(g, cl.Owner, cl.Dist, cl.NumClusters())
	if err != nil {
		t.Fatal(err)
	}
	if q1.NumEdges() != q2.NumEdges() || q1.NumEdges() != wq.NumEdges() {
		t.Fatalf("edge counts disagree: %d %d %d", q1.NumEdges(), q2.NumEdges(), wq.NumEdges())
	}
}

// q is wq's topology viewed without the weights — the same CSR arrays, not
// a second copy — and it is exactly the graph a Builder fed every crossing
// edge would produce, so sharing loses nothing.
func TestBuildWeightedSharesOneCSR(t *testing.T) {
	for name, g := range map[string]*graph.Graph{
		"mesh": graph.Mesh(40, 40),
		"rmat": graph.RMAT(10, 8, 3),
		"road": graph.RoadLike(30, 30, 0.4, 9),
	} {
		cl := clusterOf(t, g, 4)
		k := cl.NumClusters()
		q, wq, err := quotient.BuildWeighted(g, cl.Owner, cl.Dist, k)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		xadj, adj := q.CSR()
		wx, wa := wq.Topology().CSR()
		if len(adj) > 0 && (&xadj[0] != &wx[0] || &adj[0] != &wa[0]) {
			t.Errorf("%s: q holds its own CSR arrays", name)
		}
		b := graph.NewBuilder(k)
		g.Edges(func(u, v graph.NodeID) bool {
			b.AddEdge(cl.Owner[u], cl.Owner[v])
			return true
		})
		rx, ra := b.Build().CSR()
		if !slices.Equal(xadj, rx) || !slices.Equal(adj, ra) {
			t.Errorf("%s: shared topology differs from the Builder's", name)
		}
		q1, err := quotient.Build(g, cl.Owner, k)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if x1, a1 := q1.CSR(); !slices.Equal(x1, rx) || !slices.Equal(a1, ra) {
			t.Errorf("%s: Build differs from the Builder's", name)
		}
	}
}

// A minimum that fits int32 is carried exactly; one that does not is an
// error naming the weight — never a clamp, which would shorten quotient
// paths and void the upper bounds derived from them.
func TestAccumulatorRejectsWeightBeyondInt32(t *testing.T) {
	acc := quotient.NewAccumulator(3)
	acc.Offer(0, 1, math.MaxInt32+9)
	acc.Offer(1, 0, math.MaxInt32)
	acc.Offer(2, 2, 1<<40) // same cluster: no crossing
	wq, err := acc.Weighted()
	if err != nil {
		t.Fatal(err)
	}
	if _, ws := wq.Neighbors(0); wq.NumEdges() != 1 || ws[0] != math.MaxInt32 {
		t.Fatalf("edges %d weights %v, want the single minimum %d", wq.NumEdges(), ws, math.MaxInt32)
	}
	acc.Offer(1, 2, math.MaxInt32+1)
	if _, err := acc.Weighted(); err == nil || !strings.Contains(err.Error(), "2147483648") {
		t.Fatalf("err = %v, want one naming the weight 2147483648", err)
	}
}
