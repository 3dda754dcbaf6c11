// Package graph provides the compressed-sparse-row (CSR) graph
// representation used throughout the repository, together with builders,
// synthetic generators, sequential algorithms (BFS, connected components,
// exact diameter, the quotient APSP kernels), and edge-list I/O.
//
// All graphs are unweighted and undirected, matching the setting of the
// paper; an undirected edge {u, v} is stored as the two directed arcs
// (u, v) and (v, u). A separate Weighted type carries integer edge weights
// and is used for the weighted quotient graphs of Section 4.
package graph

import (
	"fmt"
	"slices"
)

// NodeID identifies a node. Graphs in this repository are limited to
// 2^31-1 nodes, which comfortably covers the experiment scales.
type NodeID = int32

// None marks the absence of a node (e.g. "not covered by any cluster").
const None NodeID = -1

// Graph is an immutable unweighted undirected graph in CSR form.
// Construct via Builder or a generator; the zero value is an empty graph.
type Graph struct {
	xadj []int64  // offsets into adj; len = n+1
	adj  []NodeID // concatenated adjacency lists; len = 2m
}

// NumNodes returns the number of nodes n.
func (g *Graph) NumNodes() int {
	if len(g.xadj) == 0 {
		return 0
	}
	return len(g.xadj) - 1
}

// NumEdges returns the number of undirected edges m.
func (g *Graph) NumEdges() int { return len(g.adj) / 2 }

// NumArcs returns the number of stored directed arcs (2m).
func (g *Graph) NumArcs() int { return len(g.adj) }

// Degree returns the degree of node u.
func (g *Graph) Degree(u NodeID) int {
	return int(g.xadj[u+1] - g.xadj[u])
}

// Neighbors returns the adjacency list of u. The returned slice aliases the
// graph's internal storage and must not be modified.
func (g *Graph) Neighbors(u NodeID) []NodeID {
	return g.adj[g.xadj[u]:g.xadj[u+1]]
}

// HasEdge reports whether the undirected edge {u, v} is present.
// It runs in O(min(deg(u), deg(v))) time.
func (g *Graph) HasEdge(u, v NodeID) bool {
	if g.Degree(v) < g.Degree(u) {
		u, v = v, u
	}
	for _, w := range g.Neighbors(u) {
		if w == v {
			return true
		}
	}
	return false
}

// MaxDegree returns the maximum degree and the lowest-id node attaining it.
// On the empty graph it returns (0, None).
func (g *Graph) MaxDegree() (int, NodeID) {
	best, arg := 0, None
	for u := NodeID(0); u < NodeID(g.NumNodes()); u++ {
		if d := g.Degree(u); d > best || arg == None {
			best, arg = d, u
		}
	}
	return best, arg
}

// Validate checks the CSR layout FromCSR checks (checkLayout) and
// symmetry: every arc has its reverse. It is O(m log m) in the worst case
// and intended for tests and debugging, not hot paths.
func (g *Graph) Validate() error {
	if err := checkLayout(g.xadj, g.adj); err != nil {
		return fmt.Errorf("graph: %w", err)
	}
	for u := range NodeID(g.NumNodes()) {
		for _, v := range g.Neighbors(u) {
			if _, ok := slices.BinarySearch(g.Neighbors(v), u); !ok {
				return fmt.Errorf("graph: arc (%d,%d) has no reverse", u, v)
			}
		}
	}
	return nil
}

func packPair(u, v NodeID) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(uint32(u))<<32 | uint64(uint32(v))
}

func unpackPair(key uint64) (NodeID, NodeID) {
	return NodeID(key >> 32), NodeID(uint32(key))
}

// Edges calls fn once per undirected edge {u, v} with u < v.
// Iteration stops early if fn returns false.
func (g *Graph) Edges(fn func(u, v NodeID) bool) {
	for u := NodeID(0); u < NodeID(g.NumNodes()); u++ {
		for _, v := range g.Neighbors(u) {
			if u < v {
				if !fn(u, v) {
					return
				}
			}
		}
	}
}

// EdgeList materializes all undirected edges with u < v.
func (g *Graph) EdgeList() [][2]NodeID {
	out := make([][2]NodeID, 0, g.NumEdges())
	g.Edges(func(u, v NodeID) bool {
		out = append(out, [2]NodeID{u, v})
		return true
	})
	return out
}
