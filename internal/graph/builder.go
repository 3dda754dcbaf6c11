package graph

import (
	"fmt"
	"slices"
)

// Builder accumulates undirected edges and produces an immutable CSR Graph.
// Self-loops are dropped and duplicate edges are merged; adjacency lists in
// the resulting graph are strictly increasing.
//
// Builder is not safe for concurrent use.
type Builder struct {
	n     int
	pairs []uint64 // packed (min,max) node pairs
}

// NewBuilder returns a builder for a graph with n nodes.
func NewBuilder(n int) *Builder {
	if n < 0 {
		panic("graph: negative node count")
	}
	return &Builder{n: n}
}

// Grow raises the node count to at least n.
func (b *Builder) Grow(n int) {
	if n > b.n {
		b.n = n
	}
}

// AddEdge records the undirected edge {u, v}. Self-loops are ignored.
// Endpoints must be in [0, n).
func (b *Builder) AddEdge(u, v NodeID) {
	if u == v {
		return
	}
	if u < 0 || v < 0 || int(u) >= b.n || int(v) >= b.n {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range n=%d", u, v, b.n))
	}
	b.pairs = append(b.pairs, packPair(u, v))
}

// Build produces the CSR graph. It sorts and deduplicates the recorded
// pairs in place, not in a copy, and keeps them; the builder remains
// usable afterwards (further edges may be added and Build called again).
func (b *Builder) Build() *Graph {
	slices.Sort(b.pairs)
	b.pairs = slices.Compact(b.pairs)
	xadj, adj, _ := fillCSR(b.n, b.pairs, nil)
	return &Graph{xadj: xadj, adj: adj}
}

// fillCSR lays out sorted, duplicate-free packed pairs as symmetric CSR
// arrays; ws, if non-nil, holds one weight per pair and is laid out in
// parallel with adj. packPair orders by (min, max) endpoint, so node u
// receives first its smaller neighbors (from the pairs (w, u), in
// increasing w) and then its larger ones (from the pairs (u, v), in
// increasing v): every adjacency list comes out strictly increasing, the
// canonical layout of both Graph and Weighted.
func fillCSR(n int, pairs []uint64, ws []int32) (xadj []int64, adj []NodeID, w []int32) {
	xadj = make([]int64, n+1)
	for _, p := range pairs {
		u, v := unpackPair(p)
		xadj[u+1]++
		xadj[v+1]++
	}
	for i := 0; i < n; i++ {
		xadj[i+1] += xadj[i]
	}
	adj = make([]NodeID, 2*len(pairs))
	if ws != nil {
		w = make([]int32, 2*len(pairs))
	}
	cursor := slices.Clone(xadj[:n])
	for i, p := range pairs {
		u, v := unpackPair(p)
		cu, cv := cursor[u], cursor[v]
		adj[cu], adj[cv] = v, u
		if ws != nil {
			w[cu], w[cv] = ws[i], ws[i]
		}
		cursor[u], cursor[v] = cu+1, cv+1
	}
	return xadj, adj, w
}

// FromEdges builds a graph with n nodes from the given undirected edge list.
func FromEdges(n int, edges [][2]NodeID) *Graph {
	b := NewBuilder(n)
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	return b.Build()
}
