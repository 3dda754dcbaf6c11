package core

import (
	"fmt"

	"repro/internal/bsp"
	"repro/internal/graph"
)

// Clustering is the result of a graph decomposition: a partition of the
// nodes into disjoint, internally connected clusters, each grown around a
// center (Section 3 of the paper).
type Clustering struct {
	// G is the decomposed graph.
	G *graph.Graph
	// Owner[u] is the cluster index of node u, in [0, NumClusters()).
	Owner []graph.NodeID
	// Dist[u] is the round at which u was claimed by its cluster — the
	// length of the growth path from the center, an upper bound on (and in
	// the unobstructed case equal to) the distance from u to its center.
	Dist []int32
	// Centers[c] is the node at the center of cluster c.
	Centers []graph.NodeID
	// Radii[c] is the maximum Dist over nodes of cluster c.
	Radii []int32
	// GrowthSteps is the total number of cluster-growing rounds R executed,
	// which governs the round complexity of a distributed execution
	// (Lemma 3).
	GrowthSteps int
	// Batches is the number of center batches that were activated.
	Batches int
	// Stats aggregates BSP substrate costs (rounds, messages).
	Stats bsp.Stats
}

// NumClusters returns the number of clusters.
func (c *Clustering) NumClusters() int { return len(c.Centers) }

// MaxRadius returns the maximum cluster radius R_ALG.
func (c *Clustering) MaxRadius() int32 { return maxOf(c.Radii) }

// maxOf returns the largest element of xs, 0 if there is none (radii are
// non-negative).
func maxOf[T int32 | int64](xs []T) (m T) {
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}

// ClusterSizes returns the number of nodes in each cluster.
func (c *Clustering) ClusterSizes() []int {
	sizes := make([]int, c.NumClusters())
	for _, o := range c.Owner {
		sizes[o]++
	}
	return sizes
}

// Validate checks the decomposition invariants promised by the paper:
// every node is covered, clusters are disjoint (trivially true for a
// single Owner array) and internally connected, each center belongs to its
// own cluster at distance 0, Dist is consistent with single-step growth
// (every non-center node has a neighbor in the same cluster at Dist one
// less), and Radii match Dist.
func (c *Clustering) Validate() error {
	n := c.G.NumNodes()
	if len(c.Owner) != n || len(c.Dist) != n {
		return fmt.Errorf("core: owner/dist length mismatch (n=%d)", n)
	}
	k := c.NumClusters()
	if len(c.Radii) != k {
		return fmt.Errorf("core: %d radii for %d clusters", len(c.Radii), k)
	}
	for u := 0; u < n; u++ {
		if c.Owner[u] < 0 || int(c.Owner[u]) >= k {
			return fmt.Errorf("core: node %d uncovered or out of range (owner %d)", u, c.Owner[u])
		}
	}
	for cl, center := range c.Centers {
		if c.Owner[center] != graph.NodeID(cl) {
			return fmt.Errorf("core: center %d not owned by its cluster %d", center, cl)
		}
		if c.Dist[center] != 0 {
			return fmt.Errorf("core: center %d has dist %d", center, c.Dist[center])
		}
	}
	maxDist := make([]int32, k)
	for u := 0; u < n; u++ {
		d := c.Dist[u]
		o := c.Owner[u]
		if d < 0 {
			return fmt.Errorf("core: node %d has negative dist", u)
		}
		if d > maxDist[o] {
			maxDist[o] = d
		}
		if d == 0 {
			if c.Centers[o] != graph.NodeID(u) {
				return fmt.Errorf("core: node %d has dist 0 but is not center of %d", u, o)
			}
			continue
		}
		ok := false
		for _, v := range c.G.Neighbors(graph.NodeID(u)) {
			if c.Owner[v] == o && c.Dist[v] == d-1 {
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("core: node %d (cluster %d, dist %d) has no predecessor", u, o, d)
		}
	}
	for cl := 0; cl < k; cl++ {
		if c.Radii[cl] != maxDist[cl] {
			return fmt.Errorf("core: cluster %d radius %d, recomputed %d", cl, c.Radii[cl], maxDist[cl])
		}
	}
	return nil
}

// RadiusUpperBoundHolds verifies Dist[u] is an upper bound on the true
// graph distance from u to its center (they can differ when growth is
// obstructed by other clusters). Used in tests; O(k·m).
func (c *Clustering) RadiusUpperBoundHolds() bool {
	for cl, center := range c.Centers {
		dist := c.G.BFS(center)
		for u := 0; u < c.G.NumNodes(); u++ {
			if c.Owner[u] == graph.NodeID(cl) && dist[u] >= 0 && c.Dist[u] < dist[u] {
				return false
			}
		}
	}
	return true
}
