package core

import (
	"testing"

	"repro/internal/graph"
)

func testGraphs() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"mesh":     graph.Mesh(40, 40),
		"roadlike": graph.RoadLike(35, 35, 0.4, 3),
		"social":   graph.BarabasiAlbert(2500, 4, 5),
		"path":     graph.Path(600),
		"expander": graph.ExpanderPath(1500, 0, 7),
	}
}

func TestClusterPartitionValid(t *testing.T) {
	for name, g := range testGraphs() {
		for _, tau := range []int{1, 4, 16} {
			cl, err := ClusterContext(t.Context(), g, tau, Options{Seed: 1})
			if err != nil {
				t.Fatalf("%s tau=%d: %v", name, tau, err)
			}
			if err := cl.Validate(); err != nil {
				t.Errorf("%s tau=%d: %v", name, tau, err)
			}
			if !cl.RadiusUpperBoundHolds() {
				t.Errorf("%s tau=%d: Dist not an upper bound on center distance", name, tau)
			}
		}
	}
}

func TestClusterRejectsBadTau(t *testing.T) {
	g := graph.Path(10)
	if _, err := ClusterContext(t.Context(), g, 0, Options{}); err == nil {
		t.Fatal("tau=0 should fail")
	}
	if _, err := ClusterContext(t.Context(), g, -3, Options{}); err == nil {
		t.Fatal("negative tau should fail")
	}
}

func TestClusterCountGrowsWithTau(t *testing.T) {
	g := graph.Mesh(60, 60)
	var prev int
	for i, tau := range []int{1, 8, 64} {
		cl, err := ClusterContext(t.Context(), g, tau, Options{Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		k := cl.NumClusters()
		if i > 0 && k <= prev {
			t.Fatalf("clusters did not grow with tau: tau=%d gives %d, previous %d", tau, k, prev)
		}
		prev = k
	}
}

func TestClusterRadiusShrinksWithTau(t *testing.T) {
	g := graph.Mesh(60, 60) // diameter 118
	coarse, err := ClusterContext(t.Context(), g, 1, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	fine, err := ClusterContext(t.Context(), g, 32, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if fine.MaxRadius() >= coarse.MaxRadius() {
		t.Fatalf("radius should shrink with tau: tau=1 r=%d, tau=32 r=%d",
			coarse.MaxRadius(), fine.MaxRadius())
	}
	// With tau=32 (hundreds of clusters over 3600 nodes) the radius must be
	// far below the diameter.
	if fine.MaxRadius() > 30 {
		t.Fatalf("tau=32 max radius %d too large for a 60x60 mesh", fine.MaxRadius())
	}
}

func TestClusterDeterministicSingleWorker(t *testing.T) {
	g := graph.RoadLike(25, 25, 0.4, 9)
	a, err := ClusterContext(t.Context(), g, 4, Options{Seed: 11, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := ClusterContext(t.Context(), g, 4, Options{Seed: 11, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if a.NumClusters() != b.NumClusters() {
		t.Fatal("same seed produced different cluster counts")
	}
	for u := range a.Owner {
		if a.Owner[u] != b.Owner[u] || a.Dist[u] != b.Dist[u] {
			t.Fatalf("same seed diverged at node %d", u)
		}
	}
}

func TestClusterSeedSensitivity(t *testing.T) {
	g := graph.BarabasiAlbert(2000, 3, 1)
	a, _ := ClusterContext(t.Context(), g, 8, Options{Seed: 1, Workers: 1})
	b, _ := ClusterContext(t.Context(), g, 8, Options{Seed: 2, Workers: 1})
	if a.NumClusters() == b.NumClusters() {
		same := true
		for c := range a.Centers {
			if a.Centers[c] != b.Centers[c] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical clusterings")
		}
	}
}

func TestClusterCenterCountMatchesTheory(t *testing.T) {
	// Theorem 1: O(τ·log²n) clusters. Check the count is within a generous
	// constant of τ·log²n and at least τ (sanity both ways).
	g := graph.Mesh(70, 70)
	n := float64(g.NumNodes())
	logn := log2n(int(n))
	for _, tau := range []int{2, 8} {
		cl, err := ClusterContext(t.Context(), g, tau, Options{Seed: 4})
		if err != nil {
			t.Fatal(err)
		}
		k := float64(cl.NumClusters())
		if k > 16*float64(tau)*logn*logn {
			t.Fatalf("tau=%d: %v clusters exceed 16·τ·log²n = %v", tau, k, 16*float64(tau)*logn*logn)
		}
		if k < float64(tau) {
			t.Fatalf("tau=%d: only %v clusters", tau, k)
		}
	}
}

func TestClusterScheduleIndependentCoverageStructure(t *testing.T) {
	// Cluster count and batch count depend only on hash-based coins, not on
	// the worker count. (Per-node owners and radii may legitimately differ
	// under contention; the paper allows arbitrary tie-breaks.)
	g := graph.Mesh(50, 50)
	ref, err := ClusterContext(t.Context(), g, 8, Options{Seed: 21, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 7} {
		cl, err := ClusterContext(t.Context(), g, 8, Options{Seed: 21, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if cl.NumClusters() != ref.NumClusters() || cl.Batches != ref.Batches {
			t.Fatalf("workers=%d: clusters/batches (%d,%d) vs reference (%d,%d)",
				workers, cl.NumClusters(), cl.Batches, ref.NumClusters(), ref.Batches)
		}
		if err := cl.Validate(); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
	}
}

func TestClusterDisconnectedGraph(t *testing.T) {
	// Two meshes side by side, never connected. τ >= 2 components.
	b := graph.NewBuilder(200)
	addMesh := func(off int) {
		for y := 0; y < 10; y++ {
			for x := 0; x < 10; x++ {
				id := func(x, y int) graph.NodeID { return graph.NodeID(off + y*10 + x) }
				if x+1 < 10 {
					b.AddEdge(id(x, y), id(x+1, y))
				}
				if y+1 < 10 {
					b.AddEdge(id(x, y), id(x, y+1))
				}
			}
		}
	}
	addMesh(0)
	addMesh(100)
	g := b.Build()
	cl, err := ClusterContext(t.Context(), g, 4, Options{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestClusterTinyGraphAllSingletons(t *testing.T) {
	// n << 8·τ·log n: the main loop never runs; everything is a singleton.
	g := graph.Path(5)
	cl, err := ClusterContext(t.Context(), g, 3, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if cl.NumClusters() != 5 {
		t.Fatalf("expected 5 singletons, got %d clusters", cl.NumClusters())
	}
	if cl.MaxRadius() != 0 {
		t.Fatalf("singletons should have radius 0, got %d", cl.MaxRadius())
	}
	if err := cl.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestClusterSingleNode(t *testing.T) {
	g := graph.Path(1)
	cl, err := ClusterContext(t.Context(), g, 1, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if cl.NumClusters() != 1 || cl.Owner[0] != 0 {
		t.Fatal("single node not clustered")
	}
}

func TestClusterExpanderPathRadiusMuchSmallerThanDiameter(t *testing.T) {
	// The paper's Section 3 example: expander + sqrt(n) path. With a large
	// enough τ the maximum radius is polylog while the diameter is the tail
	// length.
	g := graph.ExpanderPath(4000, 0, 13)
	_, diamLB := g.TwoSweep(0)
	cl, err := ClusterContext(t.Context(), g, 32, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if int32(2)*cl.MaxRadius() >= diamLB {
		t.Fatalf("expander+path: radius %d not << diameter >= %d", cl.MaxRadius(), diamLB)
	}
}

func TestClusterSizesSumToN(t *testing.T) {
	g := graph.Mesh(20, 20)
	cl, err := ClusterContext(t.Context(), g, 4, Options{Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, s := range cl.ClusterSizes() {
		total += s
	}
	if total != g.NumNodes() {
		t.Fatalf("cluster sizes sum to %d, want %d", total, g.NumNodes())
	}
}

func TestClusterGrowthStepsRecorded(t *testing.T) {
	g := graph.Mesh(40, 40)
	cl, err := ClusterContext(t.Context(), g, 2, Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if cl.GrowthSteps <= 0 {
		t.Fatal("growth steps not recorded")
	}
	if cl.Stats.Rounds != cl.GrowthSteps {
		t.Fatalf("stats rounds %d != growth steps %d", cl.Stats.Rounds, cl.GrowthSteps)
	}
	if cl.Stats.Messages <= 0 {
		t.Fatal("no messages recorded")
	}
	// Growth steps should be at least the max radius (each radius unit took
	// one round) and typically close to the sum over batches.
	if cl.GrowthSteps < int(cl.MaxRadius()) {
		t.Fatalf("steps %d < max radius %d", cl.GrowthSteps, cl.MaxRadius())
	}
}
