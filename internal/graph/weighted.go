package graph

import (
	"cmp"
	"fmt"
	"slices"
)

// Weighted is an undirected graph with positive integer edge weights in CSR
// form. It is used for the weighted quotient graphs of Section 4, where the
// weight of a quotient edge is the length of a shortest path in G between
// the two clusters.
type Weighted struct {
	xadj []int64
	adj  []NodeID
	w    []int32
}

// NewWeighted builds a weighted graph with n nodes from parallel edge and
// weight lists. Duplicate edges keep the minimum weight; self-loops are
// dropped. It rejects mismatched edge/weight lists, out-of-range endpoints,
// and non-positive weights (the weighted algorithms all assume w >= 1).
func NewWeighted(n int, edges [][2]NodeID, weights []int32) (*Weighted, error) {
	if len(edges) != len(weights) {
		return nil, fmt.Errorf("graph: NewWeighted: %d edges with %d weights", len(edges), len(weights))
	}
	type arc struct {
		pair uint64
		w    int32
	}
	arcs := make([]arc, 0, len(edges))
	for i, e := range edges {
		if e[0] < 0 || int(e[0]) >= n || e[1] < 0 || int(e[1]) >= n {
			return nil, fmt.Errorf("graph: NewWeighted: edge (%d,%d) out of range for %d nodes", e[0], e[1], n)
		}
		if e[0] == e[1] {
			continue
		}
		if weights[i] <= 0 {
			return nil, fmt.Errorf("graph: NewWeighted: non-positive weight %d on edge (%d,%d)", weights[i], e[0], e[1])
		}
		arcs = append(arcs, arc{packPair(e[0], e[1]), weights[i]})
	}
	// Sort by (pair, weight) and keep the first arc of every pair: the
	// minimum weight survives, and the input order never shows in the
	// layout, so tie-breaking in downstream algorithms is reproducible.
	slices.SortFunc(arcs, func(a, b arc) int { return cmp.Or(cmp.Compare(a.pair, b.pair), cmp.Compare(a.w, b.w)) })
	arcs = slices.CompactFunc(arcs, func(a, b arc) bool { return a.pair == b.pair })
	pairs, ws := make([]uint64, len(arcs)), make([]int32, len(arcs))
	for i, a := range arcs {
		pairs[i], ws[i] = a.pair, a.w
	}
	wg := &Weighted{}
	wg.xadj, wg.adj, wg.w = layoutCSR(n, pairs, ws)
	return wg, nil
}

// MustWeighted is NewWeighted for inputs known to be valid (fixtures,
// generated weight lists); it panics on error.
func MustWeighted(n int, edges [][2]NodeID, weights []int32) *Weighted {
	wg, err := NewWeighted(n, edges, weights)
	if err != nil {
		panic(err)
	}
	return wg
}

// NumNodes returns the number of nodes.
func (g *Weighted) NumNodes() int {
	if len(g.xadj) == 0 {
		return 0
	}
	return len(g.xadj) - 1
}

// NumEdges returns the number of undirected edges.
func (g *Weighted) NumEdges() int { return len(g.adj) / 2 }

// Degree returns the degree of u.
func (g *Weighted) Degree(u NodeID) int { return int(g.xadj[u+1] - g.xadj[u]) }

// Neighbors returns u's neighbors and the corresponding edge weights.
// Both slices alias internal storage and must not be modified.
func (g *Weighted) Neighbors(u NodeID) ([]NodeID, []int32) {
	return g.adj[g.xadj[u]:g.xadj[u+1]], g.w[g.xadj[u]:g.xadj[u+1]]
}

// Topology returns the same graph with the weights discarded: a view
// sharing this graph's CSR arrays, not a copy.
func (g *Weighted) Topology() *Graph { return &Graph{xadj: g.xadj, adj: g.adj} }

// Unit returns the same graph with every weight 1, whose distances are hop
// counts: it shares this graph's CSR arrays and has a weight array of its
// own.
func (g *Weighted) Unit() *Weighted {
	w := make([]int32, len(g.adj))
	for i := range w {
		w[i] = 1
	}
	return &Weighted{xadj: g.xadj, adj: g.adj, w: w}
}

// MaxWeight returns the heaviest edge weight, 0 for an edgeless graph.
func (g *Weighted) MaxWeight() int32 {
	var maxW int32
	for _, w := range g.w {
		maxW = max(maxW, w)
	}
	return maxW
}

// InfDist marks unreachable nodes in weighted distance arrays.
const InfDist int64 = 1 << 62
