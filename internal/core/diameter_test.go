package core

import (
	"context"
	"testing"

	"repro/internal/graph"
)

func checkDiameterBounds(t *testing.T, name string, g *graph.Graph, opt DiameterOptions) *DiameterResult {
	t.Helper()
	res, err := ApproxDiameter(context.Background(), g, opt)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	truth, exact := g.ExactDiameter(0)
	if !exact {
		t.Fatalf("%s: could not certify true diameter", name)
	}
	if res.DeltaC > int64(truth) {
		t.Errorf("%s: lower bound ∆C=%d exceeds true diameter %d", name, res.DeltaC, truth)
	}
	if res.Upper < int64(truth) {
		t.Errorf("%s: upper bound ∆″=%d below true diameter %d", name, res.Upper, truth)
	}
	if res.Upper > res.UpperLoose {
		t.Errorf("%s: ∆″=%d exceeds ∆′=%d", name, res.Upper, res.UpperLoose)
	}
	return res
}

func TestApproxDiameterBounds(t *testing.T) {
	for name, g := range testGraphs() {
		checkDiameterBounds(t, name, g, DiameterOptions{Options: Options{Seed: 1}})
	}
}

func TestApproxDiameterCluster2Bounds(t *testing.T) {
	g := graph.Mesh(40, 40)
	checkDiameterBounds(t, "mesh-cluster2", g, DiameterOptions{
		Options:     Options{Seed: 2},
		UseCluster2: true,
	})
}

func TestApproxDiameterQualityOnLongDiameterGraphs(t *testing.T) {
	// The paper observes ∆′/∆ < 2 on all benchmarks (Table 3), with the
	// ratio shrinking on sparse long-diameter graphs. Allow a little slack
	// for the scaled-down instances.
	for name, g := range map[string]*graph.Graph{
		"mesh": graph.Mesh(60, 60),
		"road": graph.RoadLike(50, 50, 0.4, 3),
	} {
		res, err := ApproxDiameter(context.Background(), g, DiameterOptions{Options: Options{Seed: 3}})
		if err != nil {
			t.Fatal(err)
		}
		truth, _ := g.ExactDiameter(0)
		ratio := float64(res.Upper) / float64(truth)
		if ratio >= 2.5 {
			t.Errorf("%s: ∆″/∆ = %.2f, want < 2.5 (paper observes < 2)", name, ratio)
		}
		if ratio < 1 {
			t.Errorf("%s: ratio %.2f below 1 — not an upper bound", name, ratio)
		}
	}
}

func TestApproxDiameterInsensitiveToGranularity(t *testing.T) {
	// Table 3: the approximation quality does not depend on the clustering
	// granularity. Compare coarse vs fine on the same graph.
	g := graph.RoadLike(40, 40, 0.4, 4)
	truth, _ := g.ExactDiameter(0)
	for _, tau := range []int{1, 8} {
		res, err := ApproxDiameter(context.Background(), g, DiameterOptions{Options: Options{Seed: 5}, Tau: tau})
		if err != nil {
			t.Fatal(err)
		}
		ratio := float64(res.Upper) / float64(truth)
		if ratio >= 3 {
			t.Errorf("tau=%d: ratio %.2f too large", tau, ratio)
		}
	}
}

func TestApproxDiameterRoundsSublinearInDiameter(t *testing.T) {
	// The whole point: on long-diameter graphs the number of growth rounds
	// is much smaller than ∆ (which is what BFS/HADI need).
	g := graph.Mesh(80, 80) // diameter 158
	res, err := ApproxDiameter(context.Background(), g, DiameterOptions{Options: Options{Seed: 6}, Tau: 16})
	if err != nil {
		t.Fatal(err)
	}
	truth, _ := g.ExactDiameter(0)
	if int64(res.Stats.Rounds) >= int64(truth)/2 {
		t.Errorf("clustering rounds %d not sublinear in diameter %d", res.Stats.Rounds, truth)
	}
}

func TestApproxDiameterDefaults(t *testing.T) {
	g := graph.BarabasiAlbert(3000, 3, 7)
	res, err := ApproxDiameter(context.Background(), g, DiameterOptions{Options: Options{Seed: 7}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Quotient.NumNodes() != res.Clustering.NumClusters() {
		t.Fatal("quotient size mismatch")
	}
	if res.Elapsed <= 0 {
		t.Fatal("elapsed time not recorded")
	}
}

func TestApproxDiameterEmptyGraph(t *testing.T) {
	if _, err := ApproxDiameter(context.Background(), graph.NewBuilder(0).Build(), DiameterOptions{}); err == nil {
		t.Fatal("empty graph should fail")
	}
}

func TestApproxDiameterSingleNode(t *testing.T) {
	res, err := ApproxDiameter(context.Background(), graph.Path(1), DiameterOptions{Options: Options{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if res.DeltaC != 0 || res.Upper != 0 {
		t.Fatalf("single node: ∆C=%d ∆″=%d want 0,0", res.DeltaC, res.Upper)
	}
}

func TestDiameterFromClusteringReuse(t *testing.T) {
	g := graph.Mesh(30, 30)
	cl, err := ClusterContext(t.Context(), g, 4, Options{Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	res, err := DiameterFromClustering(t.Context(), cl, 0)
	if err != nil {
		t.Fatal(err)
	}
	truth, _ := g.ExactDiameter(0)
	if res.DeltaC > int64(truth) || res.Upper < int64(truth) {
		t.Fatalf("bounds [%d, %d] do not bracket %d", res.DeltaC, res.Upper, truth)
	}
}

func TestDefaultDiameterTau(t *testing.T) {
	if DefaultDiameterTau(10) < 1 {
		t.Fatal("tau must be at least 1")
	}
	if DefaultDiameterTau(1_000_000) <= DefaultDiameterTau(1000) {
		t.Fatal("tau should grow with n")
	}
}
