// Package quotient builds the quotient (cluster) graphs of Section 4: the
// nodes of the quotient graph are the clusters of a decomposition, and two
// clusters are adjacent iff some edge of G crosses between them.
//
// The weighted variant assigns each quotient edge the length of the
// shortest center-to-center path that uses only nodes of the two incident
// clusters, estimated as min over crossing edges (a, b) of
// Dist[a] + 1 + Dist[b] where Dist is the growth distance to the cluster
// center. This is the refinement (following Meyer's external-memory
// algorithm [21]) that the paper uses to compute the tighter upper bound
// ∆″ = 2·R + ∆′C in its experiments.
//
// Every quotient graph in the repository — unweighted, hop-weighted, and
// the weighted-input one of core.ApproxDiameterWeighted — comes out of the
// one Accumulator below, and graph.NewWeighted is the one place its edge
// set is put into canonical CSR form.
package quotient

import (
	"fmt"
	"math"

	"repro/internal/graph"
)

// Accumulator keeps the minimum weight offered for every unordered pair of
// distinct clusters.
type Accumulator struct {
	k   int
	min map[uint64]int64
	err error
}

// NewAccumulator returns an empty accumulator over clusters [0, k).
func NewAccumulator(k int) *Accumulator {
	return &Accumulator{k: k, min: make(map[uint64]int64)}
}

// Offer records a crossing of weight w between clusters cu and cv (a
// same-cluster edge is no crossing and is ignored). An out-of-range
// cluster poisons the accumulator: Weighted reports the first one.
func (a *Accumulator) Offer(cu, cv graph.NodeID, w int64) {
	if cu < 0 || cv < 0 || int(cu) >= a.k || int(cv) >= a.k {
		if a.err == nil {
			a.err = fmt.Errorf("quotient: node with invalid cluster (%d or %d of %d)", cu, cv, a.k)
		}
		return
	}
	if cu == cv {
		return
	}
	if cu > cv {
		cu, cv = cv, cu
	}
	key := uint64(uint32(cu))<<32 | uint64(uint32(cv))
	if cur, ok := a.min[key]; !ok || w < cur {
		a.min[key] = w
	}
}

// Weighted returns the quotient graph whose edges carry the accumulated
// minima. Edge weights are int32; a minimum beyond that range is an error
// rather than a clamp, because shortening a quotient edge would shorten
// quotient paths and silently void every upper bound derived from them.
func (a *Accumulator) Weighted() (*graph.Weighted, error) {
	if a.err != nil {
		return nil, a.err
	}
	edges := make([][2]graph.NodeID, 0, len(a.min))
	weights := make([]int32, 0, len(a.min))
	for key, w := range a.min {
		cu, cv := graph.NodeID(key>>32), graph.NodeID(uint32(key))
		if w > math.MaxInt32 {
			return nil, fmt.Errorf("quotient: crossing weight %d between clusters %d and %d exceeds the int32 edge range", w, cu, cv)
		}
		edges = append(edges, [2]graph.NodeID{cu, cv})
		weights = append(weights, int32(w))
	}
	wq, err := graph.NewWeighted(a.k, edges, weights)
	if err != nil {
		return nil, fmt.Errorf("quotient: %w", err)
	}
	return wq, nil
}

// Build returns the unweighted quotient graph for the clustering described
// by owner (cluster index per node, all in [0, k)).
func Build(g *graph.Graph, owner []graph.NodeID, k int) (*graph.Graph, error) {
	if len(owner) != g.NumNodes() {
		return nil, fmt.Errorf("quotient: owner length %d, graph has %d nodes", len(owner), g.NumNodes())
	}
	q, _, err := build(g, owner, nil, k)
	return q, err
}

// BuildWeighted returns both the unweighted quotient graph and its weighted
// variant, where each quotient edge {cu, cv} carries
// min over crossing edges (a,b) of Dist[a]+1+Dist[b]. The two share one set
// of CSR arrays: q is wq's topology viewed without the weights.
func BuildWeighted(g *graph.Graph, owner []graph.NodeID, dist []int32, k int) (*graph.Graph, *graph.Weighted, error) {
	if len(owner) != g.NumNodes() || len(dist) != g.NumNodes() {
		return nil, nil, fmt.Errorf("quotient: owner/dist length mismatch (n=%d)", g.NumNodes())
	}
	return build(g, owner, dist, k)
}

// build accumulates every edge of g as a crossing of weight
// dist[u]+1+dist[v] (of weight 1 when dist is nil).
func build(g *graph.Graph, owner []graph.NodeID, dist []int32, k int) (*graph.Graph, *graph.Weighted, error) {
	acc := NewAccumulator(k)
	g.Edges(func(u, v graph.NodeID) bool {
		w := int64(1)
		if dist != nil {
			w += int64(dist[u]) + int64(dist[v])
		}
		acc.Offer(owner[u], owner[v], w)
		return acc.err == nil
	})
	wq, err := acc.Weighted()
	if err != nil {
		return nil, nil, err
	}
	return wq.Topology(), wq, nil
}
