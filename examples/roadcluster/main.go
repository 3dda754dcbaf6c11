// Road-network decomposition and k-center: the long-diameter regime where
// the paper's algorithm wins by orders of magnitude. Decomposes a road-like
// graph at several granularities, compares the radii with the MPX baseline
// (the paper's Table 2 comparison), and places k facility centers.
//
// Run with:
//
//	go run ./examples/roadcluster
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
)

func main() {
	ctx := context.Background()

	// A perturbed 400x400 grid standing in for a road network: 160,000
	// nodes, bounded degree, diameter around a thousand.
	g := repro.RoadLike(400, 400, 0.4, 11)
	fmt.Printf("road network: n=%d m=%d\n", g.NumNodes(), g.NumEdges())

	// Decompose at increasing granularity: the max radius shrinks roughly
	// like ∆/τ^(1/2) on a 2-dimensional network (Lemma 1 with b=2).
	for _, tau := range []int{1, 4, 16, 64} {
		cl, err := repro.Cluster(ctx, g, tau, repro.Options{Seed: 3})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("CLUSTER(%-2d): %5d clusters, max radius %4d, %4d rounds\n",
			tau, cl.NumClusters(), cl.MaxRadius(), cl.GrowthSteps)
	}

	// MPX comparison at matched granularity: sweep beta until MPX returns
	// a comparable cluster count (the fair comparison the paper's Table 2
	// makes — more clusters trivially means smaller radii).
	cl, err := repro.Cluster(ctx, g, 16, repro.Options{Seed: 3})
	if err != nil {
		log.Fatal(err)
	}
	beta, m := 0.02, (*repro.Clustering)(nil)
	for ; beta < 64; beta *= 2 {
		m, err = repro.MPXDecompose(ctx, g, repro.MPXOptions{Beta: beta, Seed: 3})
		if err != nil {
			log.Fatal(err)
		}
		if m.NumClusters() >= cl.NumClusters() {
			break
		}
	}
	fmt.Printf("\nradius comparison at matched granularity:\n")
	fmt.Printf("  CLUSTER: radius %3d (%d clusters)\n", cl.MaxRadius(), cl.NumClusters())
	fmt.Printf("  MPX:     radius %3d (%d clusters, beta=%.2f)\n", m.MaxRadius(), m.NumClusters(), beta)

	// k-center: place 50 facility centers so the farthest intersection is
	// as close as possible; compare with the sequential 2-approximation.
	res, err := repro.KCenter(ctx, g, 50, repro.Options{Seed: 3})
	if err != nil {
		log.Fatal(err)
	}
	_, base, err := repro.GonzalezKCenter(g, 50, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nk-center (k=50): CLUSTER radius %d vs Gonzalez %d (ratio %.2f)\n",
		res.Radius, base, float64(res.Radius)/float64(base))
}
