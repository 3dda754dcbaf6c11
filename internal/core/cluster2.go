package core

import (
	"context"
	"math"

	"repro/internal/graph"
	"repro/internal/rng"
)

// Cluster2 runs the paper's Algorithm 2, CLUSTER2(τ): it first runs
// CLUSTER(τ) to learn the maximum cluster radius R_ALG, then recomputes a
// decomposition in log n iterations where iteration i selects each
// uncovered node as a center with probability 2^i/n and grows every active
// cluster for exactly 2·R_ALG rounds.
//
// The lower bound on growing steps per iteration is what Theorem 3 needs to
// bound the number of clusters intersecting any shortest path, making the
// quotient-graph diameter approximation factor independent of the number of
// clusters. With high probability the result has O(τ·log⁴n) clusters of
// maximum radius at most 2·R_ALG·log n (Lemma 2).
//
// Both phases check ctx at the same superstep barriers as ClusterContext.
func Cluster2(ctx context.Context, g *graph.Graph, tau int, opt Options) (*Clustering, error) {
	pre, err := ClusterContext(ctx, g, tau, opt)
	if err != nil {
		return nil, err
	}
	return cluster2With(ctx, g, pre.MaxRadius(), opt)
}

// cluster2With is CLUSTER2's second phase for a given radius bound rAlg.
func cluster2With(ctx context.Context, g *graph.Graph, rAlg int32, opt Options) (*Clustering, error) {
	n := g.NumNodes()
	gr := newGrower(g, opt)
	gr.e.SetContext(ctx)
	seed := rng.Mix64(opt.Seed, 0xc105_7e22, uint64(rAlg))

	iters := int(math.Ceil(log2n(n)))
	if iters < 1 {
		iters = 1
	}
	var centers []graph.NodeID
	batches := 0
	for i := 1; i <= iters && gr.Uncovered() > 0 && ctx.Err() == nil; i++ {
		p := math.Pow(2, float64(i)) / float64(n)
		if i == iters {
			p = 1 // final iteration covers every remaining node
		}
		it := uint64(i)
		// The grower's selection never fails, and a cancelled Step reports
		// !live; the loop condition picks the cancellation up.
		centers, _ = gr.SelectUncovered(centers[:0], func(u graph.NodeID) bool {
			return rng.Coin(p, seed, it, uint64(u))
		})
		for _, u := range centers {
			gr.AddCenter(u)
		}
		batches++
		for s := int32(0); s < 2*rAlg; s++ {
			if _, live, _ := gr.Step(); !live {
				break
			}
		}
	}
	if err := ctx.Err(); err != nil {
		gr.abort()
		return nil, err
	}
	return gr.finish(batches), nil
}
