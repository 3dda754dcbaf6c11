package graph

// ConnectedComponents labels every node with a component id in [0, k) and
// returns the labels and the number of components k. Labels are assigned in
// order of the smallest node id in each component.
func (g *Graph) ConnectedComponents() (labels []int32, count int) {
	n := g.NumNodes()
	labels = make([]int32, n)
	for i := range labels {
		labels[i] = -1
	}
	queue := make([]NodeID, 0, n)
	next := int32(0)
	for s := 0; s < n; s++ {
		if labels[s] >= 0 {
			continue
		}
		labels[s] = next
		queue = queue[:0]
		queue = append(queue, NodeID(s))
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			for _, v := range g.Neighbors(u) {
				if labels[v] < 0 {
					labels[v] = next
					queue = append(queue, v)
				}
			}
		}
		next++
	}
	return labels, int(next)
}

// IsConnected reports whether the graph is connected. The empty graph and
// the single-node graph are connected.
func (g *Graph) IsConnected() bool {
	_, k := g.ConnectedComponents()
	return k <= 1
}

// LargestComponent returns the induced subgraph on the largest connected
// component, together with a mapping from new node ids to original ids.
// Ties break toward the component with the smallest label.
func (g *Graph) LargestComponent() (*Graph, []NodeID) {
	labels, k := g.ConnectedComponents()
	if k <= 1 {
		ids := make([]NodeID, g.NumNodes())
		for i := range ids {
			ids[i] = NodeID(i)
		}
		return g, ids
	}
	sizes := make([]int, k)
	for _, l := range labels {
		sizes[l]++
	}
	best := 0
	for c := 1; c < k; c++ {
		if sizes[c] > sizes[best] {
			best = c
		}
	}
	keep := func(u NodeID) bool { return labels[u] == int32(best) }
	return g.inducedSubgraph(keep, sizes[best])
}

// inducedSubgraph returns the subgraph induced by the count nodes for
// which keep is true, together with a mapping from new ids to original ids.
// It reserves half the kept nodes' degree sum as pairs, exact when they
// form a union of components, so the graph, which keeps its builder's
// capacity, carries no slack.
func (g *Graph) inducedSubgraph(keep func(NodeID) bool, count int) (*Graph, []NodeID) {
	n := g.NumNodes()
	newID := make([]NodeID, n)
	ids := make([]NodeID, 0, count)
	arcs := 0
	for u := NodeID(0); u < NodeID(n); u++ {
		if keep(u) {
			newID[u] = NodeID(len(ids))
			ids = append(ids, u)
			arcs += g.Degree(u)
		} else {
			newID[u] = None
		}
	}
	b := NewBuilder(len(ids))
	b.pairs = make([]uint64, 0, arcs/2)
	g.Edges(func(u, v NodeID) bool {
		if newID[u] != None && newID[v] != None {
			b.AddEdge(newID[u], newID[v])
		}
		return true
	})
	return b.Build(), ids
}
