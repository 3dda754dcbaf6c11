package core

import (
	"context"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/quotient"
	"repro/internal/rng"
)

// Property-based tests over randomized inputs: the decomposition invariants
// must hold for every graph, tau and seed, not just the curated cases.

// randomConnected builds a small random connected graph from a seed.
func randomConnected(seed uint64) *graph.Graph {
	r := rng.New(seed)
	n := 30 + r.Intn(120)
	m := n + r.Intn(3*n)
	g := graph.ErdosRenyi(n, m, seed)
	b := graph.NewBuilder(n)
	g.Edges(func(u, v graph.NodeID) bool { b.AddEdge(u, v); return true })
	perm := r.Perm(n)
	for i := 0; i+1 < n; i++ {
		b.AddEdge(graph.NodeID(perm[i]), graph.NodeID(perm[i+1]))
	}
	return b.Build()
}

func TestPropertyClusterAlwaysValidPartition(t *testing.T) {
	f := func(seed uint64, tauRaw uint8) bool {
		tau := 1 + int(tauRaw%8)
		g := randomConnected(seed)
		cl, err := ClusterContext(t.Context(), g, tau, Options{Seed: seed})
		if err != nil {
			return false
		}
		return cl.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyCluster2AlwaysValidPartition(t *testing.T) {
	f := func(seed uint64) bool {
		g := randomConnected(seed)
		cl, err := Cluster2(t.Context(), g, 2, Options{Seed: seed})
		if err != nil {
			return false
		}
		return cl.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyDiameterBoundsAlwaysBracket(t *testing.T) {
	f := func(seed uint64) bool {
		g := randomConnected(seed)
		res, err := ApproxDiameter(context.Background(), g, DiameterOptions{Options: Options{Seed: seed}, Tau: 2})
		if err != nil {
			return false
		}
		truth, exact := g.ExactDiameter(0)
		if !exact {
			return false
		}
		return res.DeltaC <= int64(truth) && res.Upper >= int64(truth) &&
			res.Upper <= res.UpperLoose
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyQuotientDiameterNeverExceedsGraphDiameter(t *testing.T) {
	f := func(seed uint64) bool {
		g := randomConnected(seed)
		cl, err := ClusterContext(t.Context(), g, 2, Options{Seed: seed})
		if err != nil {
			return false
		}
		q, err := quotient.Build(g, cl.Owner, cl.NumClusters())
		if err != nil {
			return false
		}
		qd, _ := q.ExactDiameter(0)
		gd, _ := g.ExactDiameter(0)
		return qd <= gd
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyKCenterRadiusAtLeastOptimalHalfGonzalez(t *testing.T) {
	// The exact objective value can never beat half the Gonzalez radius
	// (Gonzalez is a 2-approximation, so OPT >= gonzalez/2).
	f := func(seed uint64) bool {
		g := randomConnected(seed)
		k := 2 + int(seed%5)
		res, err := KCenter(context.Background(), g, k, Options{Seed: seed})
		if err != nil {
			return false
		}
		return 2*int64(res.Radius) >= 0 && len(res.Centers) <= k
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyOracleSandwich(t *testing.T) {
	// LowerQuery <= true distance <= Query for random graphs and pairs.
	f := func(seed uint64) bool {
		g := randomConnected(seed)
		o, err := BuildOracle(context.Background(), g, 1, false, Options{Seed: seed})
		if err != nil {
			return false
		}
		r := rng.New(seed ^ 0x0c11e)
		for trial := 0; trial < 5; trial++ {
			u := graph.NodeID(r.Intn(g.NumNodes()))
			dist := g.BFS(u)
			v := graph.NodeID(r.Intn(g.NumNodes()))
			d := int64(dist[v])
			if o.LowerQuery(u, v) > d || o.Query(u, v) < d {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
