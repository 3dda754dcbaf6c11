package core

import (
	"context"
	"strings"
	"testing"

	"repro/internal/gonzalez"
	"repro/internal/graph"
)

func TestKCenterBasic(t *testing.T) {
	g := graph.Mesh(30, 30)
	res, err := KCenter(context.Background(), g, 20, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Centers) == 0 || len(res.Centers) > 20 {
		t.Fatalf("got %d centers, want 1..20", len(res.Centers))
	}
	// Radius is the exact objective; it must dominate the optimum, which
	// itself is at least ~sqrt(area/k)/something; just sanity check bounds.
	if res.Radius <= 0 || res.Radius > 58 {
		t.Fatalf("radius %d outside (0, diameter]", res.Radius)
	}
}

func TestKCenterMatchesEvalCenters(t *testing.T) {
	g := graph.RoadLike(25, 25, 0.4, 2)
	res, err := KCenter(context.Background(), g, 12, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	r, err := EvalCenters(g, res.Centers)
	if err != nil {
		t.Fatal(err)
	}
	if r != res.Radius {
		t.Fatalf("reported radius %d, recomputed %d", res.Radius, r)
	}
}

func TestKCenterCompetitiveWithGonzalez(t *testing.T) {
	// Theorem 2 promises O(log³n); empirically the paper's algorithm is far
	// better. Require within 8x of the 2-approximation baseline across
	// graph families (a deliberately loose bound to keep the test stable
	// across seeds).
	for name, g := range map[string]*graph.Graph{
		"mesh":   graph.Mesh(35, 35),
		"road":   graph.RoadLike(30, 30, 0.4, 5),
		"social": graph.BarabasiAlbert(2000, 4, 6),
	} {
		k := 25
		res, err := KCenter(context.Background(), g, k, Options{Seed: 7})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		_, base, err := gonzalez.KCenter(g, k, 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if base > 0 && res.Radius > 8*base {
			t.Errorf("%s: CLUSTER k-center radius %d vs Gonzalez %d (over 8x)", name, res.Radius, base)
		}
	}
}

func TestKCenterMergePathTriggers(t *testing.T) {
	// Small k forces tau=1 which still yields O(log²n) clusters > k, so the
	// spanning-forest merge must run and still respect the budget.
	g := graph.Mesh(40, 40)
	res, err := KCenter(context.Background(), g, 5, Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Merged {
		t.Skip("decomposition returned <= k clusters; merge not exercised at this seed")
	}
	if len(res.Centers) > 5 {
		t.Fatalf("merge produced %d centers, budget 5", len(res.Centers))
	}
}

func TestKCenterErrors(t *testing.T) {
	if _, err := KCenter(context.Background(), graph.Path(5), 0, Options{}); err == nil {
		t.Fatal("k=0 should fail")
	}
	if _, err := KCenter(context.Background(), graph.NewBuilder(0).Build(), 1, Options{}); err == nil {
		t.Fatal("empty graph should fail")
	}
}

func TestKCenterDisconnectedInfeasible(t *testing.T) {
	b := graph.NewBuilder(10)
	for i := 0; i < 4; i++ {
		b.AddEdge(graph.NodeID(i), graph.NodeID(i+1))
	}
	for i := 5; i < 9; i++ {
		b.AddEdge(graph.NodeID(i), graph.NodeID(i+1))
	}
	g := b.Build()
	if _, err := KCenter(context.Background(), g, 1, Options{Seed: 1}); err == nil {
		t.Fatal("k=1 on a 2-component graph should fail")
	}
}

func TestKCenterDisconnectedFeasible(t *testing.T) {
	b := graph.NewBuilder(40)
	for i := 0; i < 19; i++ {
		b.AddEdge(graph.NodeID(i), graph.NodeID(i+1))
	}
	for i := 20; i < 39; i++ {
		b.AddEdge(graph.NodeID(i), graph.NodeID(i+1))
	}
	g := b.Build()
	res, err := KCenter(context.Background(), g, 6, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Centers) > 6 {
		t.Fatalf("%d centers exceed k", len(res.Centers))
	}
}

func TestEvalCentersErrors(t *testing.T) {
	g := graph.Path(5)
	if _, err := EvalCenters(g, nil); err == nil {
		t.Fatal("empty center set should fail")
	}
	for _, c := range []graph.NodeID{-1, 5} {
		if _, err := EvalCenters(g, []graph.NodeID{0, c}); err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Fatalf("center %d on a 5-node path: err = %v, want out of range", c, err)
		}
	}
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1) // 2, 3 isolated
	if _, err := EvalCenters(b.Build(), []graph.NodeID{0}); err == nil {
		t.Fatal("unreachable node should fail")
	}
}

func TestEvalCentersExact(t *testing.T) {
	g := graph.Path(10)
	r, err := EvalCenters(g, []graph.NodeID{0})
	if err != nil {
		t.Fatal(err)
	}
	if r != 9 {
		t.Fatalf("radius %d want 9", r)
	}
	r, err = EvalCenters(g, []graph.NodeID{0, 9})
	if err != nil {
		t.Fatal(err)
	}
	if r != 4 {
		t.Fatalf("radius %d want 4", r)
	}
}

func TestTauForTargetClusters(t *testing.T) {
	g := graph.Mesh(50, 50)
	tau, cl, err := TauForTargetClusters(g, 150, 0.3, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if tau < 1 {
		t.Fatalf("tau=%d", tau)
	}
	k := cl.NumClusters()
	if k < 75 || k > 300 {
		t.Fatalf("target 150 clusters, got %d (tau=%d)", k, tau)
	}
}

func TestTauForTargetClustersErrors(t *testing.T) {
	if _, _, err := TauForTargetClusters(graph.Path(10), 0, 0.1, Options{}); err == nil {
		t.Fatal("target 0 should fail")
	}
}
