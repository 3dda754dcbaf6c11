package graph

import "fmt"

// Raw CSR access for serialization. The snapshot codec (internal/snapshot)
// persists graphs by their CSR arrays directly; these are the only two
// entry points that expose or adopt the internal storage.

// CSR returns the graph's raw CSR arrays: the offset array xadj
// (len n+1) and the concatenated adjacency lists adj (len 2m). Both alias
// the graph's internal storage and must not be modified.
func (g *Graph) CSR() (xadj []int64, adj []NodeID) {
	return g.xadj, g.adj
}

// FromCSR adopts pre-built CSR arrays as a Graph, taking ownership of both
// slices. It verifies the canonical layout Builder produces (checkLayout)
// and rejects malformed input, so a decoded snapshot cannot smuggle in a
// graph that would crash later algorithms. Symmetry (every arc paired with
// its reverse) is not re-verified here: it is O(m log m) and snapshot
// integrity is already covered by a checksum; call Validate for the full
// check.
func FromCSR(xadj []int64, adj []NodeID) (*Graph, error) {
	if err := checkLayout(xadj, adj); err != nil {
		return nil, fmt.Errorf("graph: FromCSR: %w", err)
	}
	return &Graph{xadj: xadj, adj: adj}, nil
}

// checkLayout verifies the canonical CSR layout: monotone offsets
// bracketing adj, in-range endpoints, strictly increasing adjacency lists
// and no self-loops. An empty xadj is the empty graph.
func checkLayout(xadj []int64, adj []NodeID) error {
	if len(xadj) == 0 {
		if len(adj) != 0 {
			return fmt.Errorf("%d arcs with empty xadj", len(adj))
		}
		return nil
	}
	n := len(xadj) - 1
	if xadj[0] != 0 || xadj[n] != int64(len(adj)) {
		return fmt.Errorf("xadj endpoints [%d, %d] want [0, %d]", xadj[0], xadj[n], len(adj))
	}
	// Verify the whole offset array before slicing adj with it: a monotone
	// prefix can still hold an out-of-range offset that later entries
	// contradict.
	for u := 0; u < n; u++ {
		if xadj[u] > xadj[u+1] {
			return fmt.Errorf("xadj not monotone at %d", u)
		}
		if xadj[u+1] > int64(len(adj)) {
			return fmt.Errorf("offset %d at %d exceeds %d arcs", xadj[u+1], u+1, len(adj))
		}
	}
	for u := 0; u < n; u++ {
		prev := NodeID(-1)
		for _, v := range adj[xadj[u]:xadj[u+1]] {
			if v < 0 || int(v) >= n {
				return fmt.Errorf("arc (%d,%d) out of range", u, v)
			}
			if v == NodeID(u) {
				return fmt.Errorf("self loop at %d", u)
			}
			if v <= prev {
				return fmt.Errorf("adjacency of %d not strictly increasing", u)
			}
			prev = v
		}
	}
	return nil
}
