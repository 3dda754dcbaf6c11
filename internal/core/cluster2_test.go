package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/graph"
)

func TestCluster2PartitionValid(t *testing.T) {
	for name, g := range testGraphs() {
		cl, err := Cluster2(t.Context(), g, 4, Options{Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := cl.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestCluster2RadiusBound(t *testing.T) {
	// A cluster activated at iteration i grows 2·R_ALG steps in each of the
	// remaining iterations, so R_ALG2 <= 2·R_ALG·ceil(log n) always holds
	// structurally (Lemma 2 gives the sharper whp bound).
	g := graph.Mesh(50, 50)
	pre, err := ClusterContext(t.Context(), g, 4, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	rAlg := pre.MaxRadius()
	cl2, err := cluster2With(context.Background(), g, rAlg, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	iters := int32(math.Ceil(math.Log2(float64(g.NumNodes()))))
	if cl2.MaxRadius() > 2*rAlg*iters {
		t.Fatalf("R_ALG2=%d exceeds 2·R_ALG·log n = %d", cl2.MaxRadius(), 2*rAlg*iters)
	}
}

func TestCluster2CoversEverything(t *testing.T) {
	g := graph.RoadLike(30, 30, 0.35, 4)
	cl, err := Cluster2(t.Context(), g, 2, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for u, o := range cl.Owner {
		if o < 0 {
			t.Fatalf("node %d uncovered", u)
		}
	}
}

func TestCluster2WithRadiusZero(t *testing.T) {
	// Degenerate radius bound: no growth at all, every node ends up a
	// singleton by the final all-select iteration.
	g := graph.Path(40)
	cl, err := cluster2With(context.Background(), g, 0, Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if cl.NumClusters() != 40 {
		t.Fatalf("expected all singletons, got %d clusters", cl.NumClusters())
	}
	if err := cl.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCluster2ClusterCountWithinLemma2Bound(t *testing.T) {
	// Lemma 2: O(τ·log⁴n) clusters with high probability. (This is only an
	// upper bound — with generous 2·R_ALG growth per iteration CLUSTER2
	// often returns far fewer clusters than CLUSTER does.)
	g := graph.Mesh(45, 45)
	tau := 4
	c2, err := Cluster2(t.Context(), g, tau, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	logn := math.Log2(float64(g.NumNodes()))
	bound := 4 * float64(tau) * logn * logn * logn * logn
	if float64(c2.NumClusters()) > bound {
		t.Fatalf("CLUSTER2 gave %d clusters, beyond 4·τ·log⁴n = %.0f", c2.NumClusters(), bound)
	}
	if c2.NumClusters() < 1 {
		t.Fatal("no clusters")
	}
}
