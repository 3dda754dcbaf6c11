package core

import (
	"context"
	"errors"
	"math"

	"repro/internal/bsp"
	"repro/internal/graph"
	"repro/internal/quotient"
)

// DiameterOptions configures the decomposition-based diameter estimator of
// Section 4.
type DiameterOptions struct {
	Options

	// Tau is the granularity parameter of the underlying decomposition:
	// larger values yield more clusters, a bigger quotient graph, and
	// (typically) fewer growth rounds. If zero, a default targeting a
	// quotient of about sqrt(n) nodes is used.
	Tau int

	// UseCluster2 selects the theory-faithful pipeline: CLUSTER2 with its
	// lower-bounded growth (the path analyzed by Theorem 3 / Corollary 1).
	// The default false uses plain CLUSTER, the simplification the paper's
	// own experiments adopt (Section 6.2).
	UseCluster2 bool
}

// DiameterResult carries the diameter estimate and everything the paper's
// Tables 3 and 4 report about a run.
type DiameterResult struct {
	// Clustering is the decomposition the estimate was derived from.
	Clustering *Clustering
	// Quotient is the unweighted quotient graph (nC nodes, mC edges).
	Quotient *graph.Graph
	// WeightedQuotient carries shortest-crossing-path edge weights.
	WeightedQuotient *graph.Weighted
	// RMax is the maximum cluster radius (R_ALG, or R_ALG2 with CLUSTER2).
	RMax int32
	// DeltaC is the (hop) diameter of the unweighted quotient graph, a
	// lower bound on the true diameter ∆.
	DeltaC int64
	// DeltaCWeighted is the diameter ∆′C of the weighted quotient graph.
	DeltaCWeighted int64
	// UpperLoose is ∆′ = 2·RMax·(∆C + 1) + ∆C, the upper bound of
	// Corollary 1 (unweighted variant).
	UpperLoose int64
	// Upper is ∆″ = 2·RMax + ∆′C, the tighter weighted-variant upper bound
	// that the paper's experiments report as the estimate ∆′. It never
	// exceeds UpperLoose: a quotient arc weighs at most 2·RMax + 1, so
	// ∆′C ≤ (2·RMax + 1)·∆C.
	Upper int64
	// Stats aggregates the BSP cost of the clustering phase.
	Stats bsp.Stats
}

// ApproxDiameter estimates the diameter of the connected graph g by
// decomposing it, building the quotient graph of the clustering, and
// computing the quotient diameter(s). It returns certified lower and upper
// bounds DeltaC ≤ ∆ ≤ Upper; with high probability Upper = O(∆·log³n)
// (Corollary 1), and in practice Upper/∆ < 2 (Section 6.2). Cancelling ctx
// aborts the build — in the clustering phase or between the quotient
// diameter searches — and returns ctx.Err().
func ApproxDiameter(ctx context.Context, g *graph.Graph, opt DiameterOptions) (*DiameterResult, error) {
	n := g.NumNodes()
	if n == 0 {
		return nil, errors.New("core: diameter of empty graph")
	}
	tau := opt.Tau
	if tau <= 0 {
		tau = DefaultDiameterTau(n)
	}

	var (
		cl  *Clustering
		err error
	)
	if opt.UseCluster2 {
		cl, err = Cluster2(ctx, g, tau, opt.Options)
	} else {
		cl, err = ClusterContext(ctx, g, tau, opt.Options)
	}
	if err != nil {
		return nil, err
	}
	return DiameterFromClustering(ctx, cl, opt.Workers)
}

// DiameterFromClustering derives the diameter bounds from an existing
// decomposition: it contracts cl with the given parallelism (non-positive =
// GOMAXPROCS) and runs exact iFUB on both quotients. The clustering phase
// dominates the cost; this entry point lets experiments reuse one
// clustering for several analyses. Cancelling ctx aborts the quotient
// diameter searches and returns ctx.Err().
func DiameterFromClustering(ctx context.Context, cl *Clustering, workers int) (*DiameterResult, error) {
	q, wq, err := quotient.Contract(cl.G, cl.Owner, cl.Dist, cl.NumClusters(), workers)
	if err != nil {
		return nil, err
	}
	deltaC, _, err := q.ExactDiameterContext(ctx, 0)
	if err != nil {
		return nil, err
	}
	deltaCW, _, err := wq.ExactDiameterWeightedContext(ctx, 0)
	if err != nil {
		return nil, err
	}
	rMax := cl.MaxRadius()
	return &DiameterResult{
		Clustering:       cl,
		Quotient:         q,
		WeightedQuotient: wq,
		RMax:             rMax,
		DeltaC:           int64(deltaC),
		DeltaCWeighted:   deltaCW,
		UpperLoose:       2*int64(rMax)*(int64(deltaC)+1) + int64(deltaC),
		Upper:            2*int64(rMax) + deltaCW,
		Stats:            cl.Stats,
	}, nil
}

// DefaultDiameterTau returns the paper default granularity for diameter
// estimation over an n-node graph, yielding a quotient graph of roughly
// sqrt(n) clusters: CLUSTER returns O(τ·log²n) clusters, so
// τ ≈ sqrt(n)/log²n (at least 1). Exported so the serving layer can
// resolve parameter-less requests to the same artifact key an explicit
// request for the default would use.
func DefaultDiameterTau(n int) int {
	logn := log2n(n)
	tau := int(math.Sqrt(float64(n)) / (logn * logn))
	if tau < 1 {
		tau = 1
	}
	return tau
}
