package core

import (
	"context"
	"errors"

	"repro/internal/graph"
)

// ClusterContext runs the paper's Algorithm 1, CLUSTER(τ): it partitions
// the nodes of g into disjoint connected clusters by growing clusters around
// batches of randomly selected centers. A new batch of roughly 4τ·log n
// centers is activated from the uncovered nodes every time the set of
// uncovered nodes halves; previously activated clusters keep growing
// throughout. When fewer than 8τ·log n nodes remain uncovered, they become
// singleton clusters.
//
// With high probability the result has O(τ·log²n) clusters whose maximum
// radius is within an O(log n) factor of the best achievable with τ
// clusters (Theorem 1, Lemma 1).
//
// The graph may be disconnected provided τ is at least the number of
// components (Section 3.2); two engineering guards preserve termination on
// any input regardless: a batch ends early if every cluster frontier is
// exhausted, and if a batch samples no centers while no cluster can grow,
// the lowest-id uncovered node is forcibly selected.
//
// The growth checks ctx at the existing superstep barriers (between rounds
// and between batches, never inside a round) and returns ctx.Err() within
// one round of a cancel. Cancellation checks never influence the rounds an
// uncancelled run executes, so the result stays bit-for-bit deterministic
// in (seed, tau) across worker counts.
func ClusterContext(ctx context.Context, g *graph.Graph, tau int, opt Options) (*Clustering, error) {
	if tau < 1 {
		return nil, errors.New("core: Cluster requires tau >= 1")
	}
	gr := newGrower(g, opt)
	gr.e.SetContext(ctx)
	batches, err := opt.Schedule(gr, g.NumNodes(), tau, ClusterTag)
	if err == nil {
		err = ctx.Err()
	}
	if err != nil {
		gr.abort()
		return nil, err
	}

	// Remaining uncovered nodes become singleton clusters (the BSP grower's
	// selection is a local scan and never fails).
	rest, _ := gr.SelectUncovered(nil, func(graph.NodeID) bool { return true })
	for _, u := range rest {
		gr.AddCenter(u)
	}
	return gr.finish(batches), nil
}
