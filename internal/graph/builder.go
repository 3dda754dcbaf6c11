package graph

import (
	"fmt"
	"slices"
	"unsafe"
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

// newBuilderFor returns a builder for a graph with n nodes with room for m
// edges. A built graph keeps its pair buffer's capacity, so a generator
// that knows how many edges it will add reserves them here and the graph
// carries none of append's slack.
func newBuilderFor(n, m int) *Builder {
	b := NewBuilder(n)
	b.pairs = make([]uint64, 0, m)
	return b
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

// Build produces the CSR graph and empties the builder, which keeps its
// node count: further edges may be added and Build called again, and the
// next graph has only those edges. It sorts and deduplicates the recorded
// pairs in place and lays the graph's adjacency out inside them, so the
// graph allocates only its offsets and keeps the pair buffer's capacity.
// Pairs that fill less than half of it, after a reservation that overstated
// the edges or many duplicates, move to an exact-size buffer first: the
// graph never holds more than twice its adjacency.
func (b *Builder) Build() *Graph {
	slices.Sort(b.pairs)
	pairs := slices.Compact(b.pairs)
	if len(pairs) < cap(pairs)/2 {
		pairs = append(make([]uint64, 0, len(pairs)), pairs...)
	}
	b.pairs = nil
	xadj, adj, _ := layoutCSR(b.n, pairs, nil)
	return &Graph{xadj: xadj, adj: adj}
}

// layoutCSR lays out sorted, duplicate-free packed pairs as symmetric CSR
// arrays, consuming pairs: adj is pairs' memory, m words of 8 bytes viewed
// as 2m NodeIDs of 4. ws, if non-nil, holds one weight per pair; w, laid
// out in parallel with adj, is the one other array besides xadj and an
// n-entry count. packPair orders by (min, max) endpoint, so every list
// comes out strictly increasing, the canonical layout of both Graph and
// Weighted: first node u's lower neighbours (the pairs (v, u), in
// increasing v), then its upper ones (the pairs (u, v), in increasing v).
func layoutCSR(n int, pairs []uint64, ws []int32) (xadj []int64, adj []NodeID, w []int32) {
	xadj = make([]int64, n+1)
	lo := make([]int32, n) // lower degrees, then the lower parts' fill cursors
	adj = unsafe.Slice((*NodeID)(unsafe.Pointer(unsafe.SliceData(pairs))), 2*len(pairs))
	// Pass 1 counts the degrees and writes pair i's larger endpoint into
	// slot i. That slot lies in pair i/2's word, already read, so the pass
	// leaves each node's upper list, in order, in adj[:len(pairs)].
	for i, p := range pairs {
		u, v := unpackPair(p)
		xadj[u+1]++ // upper degrees, until the prefix sum adds the lower ones
		lo[v]++
		adj[i] = v
	}
	var sum int64
	for u := range n {
		sum += xadj[u+1] + int64(lo[u])
		xadj[u+1] = sum
	}
	if ws != nil {
		w = make([]int32, len(adj))
	}
	// Pass 2 walks the upper lists from the last arc down. It moves each
	// arc (u, v) to the end of u's range, where u's upper list ends, and
	// writes u at the end of v's unfilled lower part, so that part fills
	// with decreasing u. Nothing written lands on an arc still to move:
	// u's range begins at or above u's list, and v's lower part lies above
	// u's range. Nodes below u have not touched lo[u] yet, so it still
	// counts all of u's lower neighbours.
	i := len(pairs)
	for u := n - 1; u >= 0; u-- {
		for j, upper := xadj[u+1]-1, xadj[u]+int64(lo[u]); j >= upper; j-- {
			i--
			v := adj[i]
			adj[j] = v
			lo[v]--
			k := xadj[v] + int64(lo[v])
			adj[k] = NodeID(u)
			if ws != nil {
				w[j], w[k] = ws[i], ws[i]
			}
		}
	}
	return xadj, adj, w
}

// FromEdges builds a graph with n nodes from the given undirected edge list.
func FromEdges(n int, edges [][2]NodeID) *Graph {
	b := newBuilderFor(n, len(edges))
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	return b.Build()
}
