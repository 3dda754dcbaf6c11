// Approximate distance oracle: build the linear-space oracle sketched at
// the end of the paper's Section 4 and answer point-to-point distance
// queries in constant time, comparing against exact BFS distances.
//
// Run with:
//
//	go run ./examples/oracle
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
	"repro/internal/rng"
)

func main() {
	ctx := context.Background()
	g := repro.RoadLike(250, 250, 0.4, 5)
	fmt.Printf("graph: n=%d m=%d\n", g.NumNodes(), g.NumEdges())

	// τ controls the space/accuracy trade-off: the oracle stores the APSP
	// matrix of the quotient graph, so the number of clusters (O(τ·log²n))
	// squared must stay manageable.
	oracle, err := repro.BuildOracle(ctx, g, 2, false, repro.Options{Seed: 9})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("oracle over %d clusters (max radius %d)\n",
		oracle.NumClusters(), oracle.Clustering().MaxRadius())

	r := rng.New(123)
	fmt.Println("\n  u      v      true  oracle  ratio")
	var worst float64
	for i := 0; i < 10; i++ {
		u := repro.NodeID(r.Intn(g.NumNodes()))
		v := repro.NodeID(r.Intn(g.NumNodes()))
		truth := g.BFS(u)[v]
		est := oracle.Query(u, v)
		ratio := 0.0
		if truth > 0 {
			ratio = float64(est) / float64(truth)
			if ratio > worst {
				worst = ratio
			}
		}
		fmt.Printf("  %-6d %-6d %-5d %-7d %.2f\n", u, v, truth, est, ratio)
	}
	fmt.Printf("\nworst sampled ratio: %.2f (upper bounds are certified; the\n", worst)
	fmt.Println("polylog guarantee kicks in for far-apart pairs)")
}
