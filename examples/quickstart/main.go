// Quickstart: decompose a graph with CLUSTER(τ), inspect the clustering,
// and bracket the graph's diameter with the quotient-graph estimator.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
)

func main() {
	ctx := context.Background()

	// A 200x200 mesh: 40,000 nodes, diameter 398, doubling dimension 2 —
	// the regime where the paper's algorithm provably shines.
	g := repro.Mesh(200, 200)
	fmt.Printf("graph: n=%d m=%d\n", g.NumNodes(), g.NumEdges())

	// Decompose into clusters with granularity parameter τ = 16. More τ
	// means more clusters with smaller radii.
	cl, err := repro.Cluster(ctx, g, 16, repro.Options{Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("CLUSTER(16): %d clusters, max radius %d, %d growth rounds\n",
		cl.NumClusters(), cl.MaxRadius(), cl.GrowthSteps)

	// The clustering is a partition; every node knows its cluster and its
	// distance to the cluster center.
	u := repro.NodeID(12345)
	fmt.Printf("node %d -> cluster %d (center %d, %d hops)\n",
		u, cl.Owner[u], cl.Centers[cl.Owner[u]], cl.Dist[u])

	// Diameter estimation: certified bounds from the quotient graph. Note
	// how few rounds this takes compared to the ~400 a BFS would need.
	res, err := repro.ApproxDiameter(ctx, g, repro.DiameterOptions{
		Options: repro.Options{Seed: 1},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("diameter: %d <= ∆ <= %d (true 398), quotient %d nodes, %d rounds\n",
		res.DeltaC, res.Upper, res.Quotient.NumNodes(), res.Stats.Rounds)
}
