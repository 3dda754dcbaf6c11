package graph

// Sequential breadth-first search utilities. These are the reference
// implementations tests check the engines against; Gonzalez's k-center
// baseline sweeps with BFSInto, and the benchmark times MultiSourceBFS as
// a pinned control. Exact diameters run iFUB on bsp.Engine (exact.go); the
// parallel traversals live in internal/bsp and internal/pbfs.

// BFS computes hop distances from src. Unreachable nodes get distance -1.
// The returned slice has length NumNodes.
func (g *Graph) BFS(src NodeID) []int32 {
	dist := make([]int32, g.NumNodes())
	for i := range dist {
		dist[i] = -1
	}
	g.BFSInto(src, dist, nil)
	return dist
}

// BFSInto runs BFS from src reusing caller-provided storage. dist must have
// length NumNodes and be pre-filled with -1; queue, if non-nil, is used as
// scratch and must have capacity NumNodes. It returns the eccentricity of
// src within its component.
func (g *Graph) BFSInto(src NodeID, dist []int32, queue []NodeID) int32 {
	if queue == nil {
		queue = make([]NodeID, 0, g.NumNodes())
	}
	queue = queue[:0]
	queue = append(queue, src)
	dist[src] = 0
	var ecc int32
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		du := dist[u]
		if du > ecc {
			ecc = du
		}
		for _, v := range g.Neighbors(u) {
			if dist[v] < 0 {
				dist[v] = du + 1
				queue = append(queue, v)
			}
		}
	}
	return ecc
}

// Eccentricity returns the maximum hop distance from src to any node
// reachable from it.
func (g *Graph) Eccentricity(src NodeID) int32 {
	dist := make([]int32, g.NumNodes())
	for i := range dist {
		dist[i] = -1
	}
	return g.BFSInto(src, dist, nil)
}

// FarthestFrom returns a node at maximum hop distance from src together
// with that distance (the eccentricity of src). Ties break toward the
// smallest node id for determinism.
func (g *Graph) FarthestFrom(src NodeID) (NodeID, int32) {
	dist := g.BFS(src)
	best, arg := int32(-1), src
	for u, d := range dist {
		if d > best {
			best, arg = d, NodeID(u)
		}
	}
	return arg, best
}

// TwoSweep performs the classical double-sweep heuristic: a BFS from start
// finds a far node a, a BFS from a finds ecc(a). It returns a and ecc(a),
// which is a lower bound on the diameter (and empirically very tight on
// real-world graphs).
func (g *Graph) TwoSweep(start NodeID) (far NodeID, lower int32) {
	a, _ := g.FarthestFrom(start)
	b, eccA := g.FarthestFrom(a)
	_ = b
	return a, eccA
}

// MultiSourceBFS computes, for every node, the hop distance to the nearest
// of the given sources and which source reached it (the "owner"). Sources
// claim nodes in BFS order with ties broken by queue order, which is the
// sequential analogue of the paper's "arbitrary" concurrent tie-break.
// Unreached nodes get distance -1 and owner None.
func (g *Graph) MultiSourceBFS(sources []NodeID) (dist []int32, owner []NodeID) {
	n := g.NumNodes()
	dist = make([]int32, n)
	owner = make([]NodeID, n)
	for i := range dist {
		dist[i] = -1
		owner[i] = None
	}
	queue := make([]NodeID, 0, n)
	for _, s := range sources {
		if dist[s] == 0 && owner[s] != None {
			continue // duplicate source
		}
		dist[s] = 0
		owner[s] = s
		queue = append(queue, s)
	}
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, v := range g.Neighbors(u) {
			if dist[v] < 0 {
				dist[v] = dist[u] + 1
				owner[v] = owner[u]
				queue = append(queue, v)
			}
		}
	}
	return dist, owner
}

// AllEccentricities computes the eccentricity of every node by running a
// full BFS from each. O(n·m): intended for small graphs and tests only.
func (g *Graph) AllEccentricities() []int32 {
	n := g.NumNodes()
	ecc := make([]int32, n)
	dist := make([]int32, n)
	queue := make([]NodeID, 0, n)
	for u := 0; u < n; u++ {
		for i := range dist {
			dist[i] = -1
		}
		ecc[u] = g.BFSInto(NodeID(u), dist, queue)
	}
	return ecc
}

// DiameterExhaustive computes the exact diameter by full APSP via repeated
// BFS. O(n·m); use ExactDiameter (iFUB) for anything but tiny graphs.
// On a disconnected graph it returns the largest eccentricity within any
// component. The empty graph has diameter 0.
func (g *Graph) DiameterExhaustive() int32 {
	var diam int32
	for _, e := range g.AllEccentricities() {
		if e > diam {
			diam = e
		}
	}
	return diam
}
