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
// Accumulator below, and graph.NewWeighted is the one place its edge set is
// put into canonical CSR form. Contract is the data-parallel contraction of
// Section 5 (proof of Theorem 4): workers scan disjoint node ranges of G,
// each into an Accumulator of its own, and Contract min-merges them into
// the first before the CSR is laid out — min is commutative and
// associative, so the result does not depend on who scanned what.
// core.ApproxDiameterWeighted offers its (weighted-input) crossings to a
// single Accumulator itself and merges nothing.
package quotient

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/bsp"
	"repro/internal/graph"
)

// Accumulator keeps the minimum weight offered for every unordered pair of
// distinct clusters. It is not safe for concurrent use: Contract gives each
// of its workers one and merges them itself once the workers are done;
// anyone else (core.ApproxDiameterWeighted) offers from one goroutine.
type Accumulator struct {
	k   int
	min map[uint64]int64
	err error
	// recent is a direct-mapped cache of min, consulted first: crossings
	// outnumber quotient edges several hundred to one where they are common
	// (1.4 M to 2.2 k on the benchmark's social graph), so nearly every
	// offer is a repeat that does not lower its pair's minimum, and this
	// turns it away for one multiplication and one cache line where the map
	// hashes and probes. A slot with key 0 is empty: no pair packs to 0.
	recent [recentSlots]struct {
		key uint64
		min int64
	}
}

// recentBits sizes Accumulator.recent: 2^recentBits slots, indexed by the
// top bits of a multiplicative hash of the key.
const (
	recentBits  = 12
	recentSlots = 1 << recentBits
)

// NewAccumulator returns an empty accumulator over clusters [0, k).
func NewAccumulator(k int) *Accumulator {
	return &Accumulator{k: k, min: make(map[uint64]int64)}
}

// Offer records a crossing of weight w between clusters cu and cv (a
// same-cluster edge is no crossing and is ignored). An out-of-range
// cluster poisons the accumulator: Weighted reports the first one.
func (a *Accumulator) Offer(cu, cv graph.NodeID, w int64) {
	if !a.valid(cu) || !a.valid(cv) {
		a.poison(cu, cv)
	} else if cu != cv {
		a.lower(pairKey(cu, cv), w)
	}
}

func (a *Accumulator) valid(c graph.NodeID) bool { return c >= 0 && int(c) < a.k }

func (a *Accumulator) poison(cu, cv graph.NodeID) {
	if a.err == nil {
		a.err = fmt.Errorf("quotient: node with invalid cluster (%d or %d of %d)", cu, cv, a.k)
	}
}

// pairKey packs the unordered pair of distinct clusters {cu, cv}, smaller
// first, so that keys sort the way graph.NewWeighted lays edges out.
func pairKey(cu, cv graph.NodeID) uint64 {
	if cu > cv {
		cu, cv = cv, cu
	}
	return uint64(uint32(cu))<<32 | uint64(uint32(cv))
}

// lower brings the minimum kept under key down to w.
func (a *Accumulator) lower(key uint64, w int64) {
	slot := &a.recent[key*0x9e3779b97f4a7c15>>(64-recentBits)]
	if slot.key == key {
		if w < slot.min {
			slot.min = w
			a.min[key] = w
		}
		return
	}
	if cur, ok := a.min[key]; ok && cur <= w {
		w = cur
	} else {
		a.min[key] = w
	}
	slot.key, slot.min = key, w
}

// merge folds b's minima, and b's poison if a has none, into a.
func (a *Accumulator) merge(b *Accumulator) {
	if a.err == nil {
		a.err = b.err
	}
	for key, w := range b.min {
		a.lower(key, w)
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
	q, _, err := Contract(g, owner, nil, k, 0)
	return q, err
}

// BuildWeighted returns both the unweighted quotient graph and its weighted
// variant, where each quotient edge {cu, cv} carries
// min over crossing edges (a,b) of Dist[a]+1+Dist[b]. The two share one set
// of CSR arrays: q is wq's topology viewed without the weights.
func BuildWeighted(g *graph.Graph, owner []graph.NodeID, dist []int32, k int) (*graph.Graph, *graph.Weighted, error) {
	if dist == nil {
		dist = []int32{} // nil would ask Contract for unit weights
	}
	return Contract(g, owner, dist, k, 0)
}

// chunkArcs is how many arcs (CSR entries, so each edge counts twice) the
// node range of one claim holds, give or take the degree of its last node.
// The size hardly matters as long as claims outnumber workers severalfold:
// at two workers the contraction read 24–26 ms on the benchmark's social
// graph (8 M arcs; 47 ms at one worker) and 7.7–7.9 ms on its road graph
// (2.8 M arcs; 13.7 ms) for every size from 4 k to 256 k, and 9.0 ms on road
// at 1 M, where three claims no longer split evenly between two workers.
// 64 k keeps the MR side graphs, the fixtures and most cmd/ inputs, which are
// smaller than that, on the caller.
const chunkArcs = 64 << 10

// Contract contracts every cluster of g to one node: it returns the
// quotient graph q and its weighted variant wq (see BuildWeighted; q is
// wq's topology), every edge of g offered as a crossing of weight
// dist[u]+1+dist[v] — of weight 1 when dist is nil. owner gives each node's
// cluster in [0, k).
//
// The work is split by arcs, not nodes: node ranges of about chunkArcs arcs
// (boundaries found by binary search in the offset array, so a run of hubs
// cannot land in one range) are claimed one at a time by the workers of a
// bsp.Pool (non-positive selects GOMAXPROCS, and never more than there are
// ranges), the caller being one of them — a graph of at most one range is
// contracted on the caller with no goroutine started. Claims are dynamic
// because an edge is offered from its lower endpoint, which puts most of
// the work on low node ids; a static split would leave it with the first
// worker. Each worker keeps its minima in an Accumulator of its own; they
// are merged afterwards and graph.NewWeighted sorts what is left, so the
// CSR arrays are bit-identical for every worker count and claim order.
func Contract(g *graph.Graph, owner []graph.NodeID, dist []int32, k, workers int) (*graph.Graph, *graph.Weighted, error) {
	n := g.NumNodes()
	if len(owner) != n || (dist != nil && len(dist) != n) {
		return nil, nil, fmt.Errorf("quotient: owner/dist length mismatch (n=%d)", n)
	}
	xadj, adj := g.CSR()
	chunks := (len(adj) + chunkArcs - 1) / chunkArcs
	workers = max(1, min(bsp.Workers(workers), chunks))
	pool := bsp.NewPool(workers)
	defer pool.Close()
	accs := make([]*Accumulator, workers)
	for w := range accs {
		accs[w] = NewAccumulator(k)
	}
	pool.Claim(chunks, 1, func(w, lo, hi int) {
		if acc := accs[w]; acc.err == nil { // once poisoned the result is an error: skip the rest
			from, _ := slices.BinarySearch(xadj[:n], int64(lo)*chunkArcs)
			to, _ := slices.BinarySearch(xadj[:n], int64(hi)*chunkArcs)
			acc.scan(xadj, adj, owner, dist, from, to)
		}
	})
	for _, acc := range accs[1:] {
		accs[0].merge(acc)
	}
	wq, err := accs[0].Weighted()
	if err != nil {
		return nil, nil, err
	}
	return wq.Topology(), wq, nil
}

// scan offers the edges of g whose lower endpoint lies in [lo, hi).
// Adjacency lists are strictly increasing (graph.FromCSR verifies it), so
// the higher neighbors of u are a suffix of its list and the walk stops at
// the first lower one. An edge inside one cluster — from half of them to
// nearly all, depending on the granularity — is dropped on the comparison
// of the two owners, before any call; what Offer would have checked for it,
// that the cluster is in range, is checked once per node of positive degree
// instead.
func (a *Accumulator) scan(xadj []int64, adj, owner []graph.NodeID, dist []int32, lo, hi int) {
	for u := lo; u < hi; u++ {
		nbrs := adj[xadj[u]:xadj[u+1]]
		if len(nbrs) == 0 {
			continue
		}
		cu := owner[u]
		if !a.valid(cu) {
			a.poison(cu, cu)
			return
		}
		wu := int64(1)
		if dist != nil {
			wu += int64(dist[u])
		}
		for i := len(nbrs) - 1; i >= 0 && int(nbrs[i]) > u; i-- {
			v := nbrs[i]
			cv := owner[v]
			if cv == cu {
				continue
			}
			if !a.valid(cv) {
				a.poison(cu, cv)
				return
			}
			w := wu
			if dist != nil {
				w += int64(dist[v])
			}
			a.lower(pairKey(cu, cv), w)
		}
	}
}
