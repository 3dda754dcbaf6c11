package core

import (
	"math/bits"
	"slices"

	"repro/internal/bsp"
	"repro/internal/graph"
)

// grower is the shared engine for disjoint parallel cluster growing: it
// maintains the ownership and distance arrays and advances all active
// clusters one synchronous BSP round at a time on the direction-optimizing
// traversal engine. It is the BSP implementation of Growth: CLUSTER drives
// it through Options.Schedule, CLUSTER2 through its own iteration loop.
// Package mpx drives the same engine step with its own callback, which takes
// a min over (arrival, cluster) keys instead of the engine's winner.
type grower struct {
	g       *graph.Graph
	e       *bsp.Engine
	owner   []int32 // cluster index per node; -1 = uncovered
	dist    []int32
	centers []graph.NodeID
	covered int
	steps   int
}

func newGrower(g *graph.Graph, opt Options) *grower {
	n := g.NumNodes()
	gr := &grower{
		g:     g,
		e:     bsp.NewEngine(g, opt.Workers),
		owner: make([]int32, n),
		dist:  make([]int32, n),
	}
	gr.e.SetDirection(opt.Direction)
	gr.e.SetObserver(opt.Observer)
	for i := range gr.owner {
		gr.owner[i] = -1
	}
	return gr
}

// The Growth methods, as the batch schedule sees the grower.

func (gr *grower) Uncovered() int { return gr.g.NumNodes() - gr.covered }

func (gr *grower) Idle() bool { return gr.e.FrontierLen() == 0 }

func (gr *grower) Covered(u graph.NodeID) bool { return gr.owner[u] != -1 }

// AddCenter makes u the center of a fresh singleton cluster. u must be
// uncovered. Not safe for concurrent use: centers are added between growth
// rounds, matching the algorithm structure.
func (gr *grower) AddCenter(u graph.NodeID) {
	if gr.owner[u] != -1 {
		panic("core: AddCenter on covered node")
	}
	gr.owner[u] = int32(len(gr.centers))
	gr.centers = append(gr.centers, u)
	gr.dist[u] = 0
	gr.e.Seed(u)
	gr.covered++
}

// Step grows every active cluster by one round and returns the number of
// newly covered nodes; a round that covers nothing means every frontier is
// exhausted, and a cancelled engine context surfaces as the error. Which
// cluster takes a node that several reach in the same round is the engine's
// rule (bsp.Engine.Step: the smallest-id frontier neighbor, in either
// direction); the grower only copies that neighbor's cluster and depth once
// the engine hands it the claim.
func (gr *grower) Step() (claimed int, live bool, err error) {
	owner, dist := gr.owner, gr.dist
	rs := gr.e.Step(func(_ int, v, parent graph.NodeID) {
		owner[v] = owner[parent]
		dist[v] = dist[parent] + 1
	})
	if rs.Frontier > 0 {
		gr.steps++
		gr.covered += rs.Claimed
	}
	return rs.Claimed, rs.Claimed > 0, gr.e.Err()
}

// SelectUncovered appends to dst every uncovered node u for which pick(u)
// is true, walking the zero bits of the engine's visited set — between
// rounds a node is covered exactly when the engine has visited it — in
// parallel (64-aligned blocks claimed on the engine's persistent pool) but
// returning nodes in ascending id order so center numbering is
// deterministic. It never fails.
func (gr *grower) SelectUncovered(dst []graph.NodeID, pick func(u graph.NodeID) bool) ([]graph.NodeID, error) {
	parts := make([][]graph.NodeID, gr.e.NumWorkers())
	visited := gr.e.Visited()
	gr.e.For(gr.g.NumNodes(), func(worker, lo, hi int) {
		for wi := lo >> 6; wi<<6 < hi; wi++ {
			base := graph.NodeID(wi << 6)
			for m := visited.Absent(wi); m != 0; m &= m - 1 {
				u := base + graph.NodeID(bits.TrailingZeros64(m))
				if int(u) >= hi { // hi is clamped to n: this skips pad bits
					break
				}
				if pick(u) {
					parts[worker] = append(parts[worker], u)
				}
			}
		}
	})
	start := len(dst)
	for _, p := range parts {
		dst = append(dst, p...)
	}
	slices.Sort(dst[start:])
	return dst, nil
}

// finish freezes the grower into a Clustering, computing per-cluster radii.
// The Clustering takes over the grower's ownership array (graph.NodeID is
// int32). The caller releases the engine's worker pool (gr.e.Close), on
// every exit path.
func (gr *grower) finish(batches int) *Clustering {
	c := &Clustering{
		G:           gr.g,
		Owner:       gr.owner,
		Dist:        gr.dist,
		Centers:     gr.centers,
		Radii:       make([]int32, len(gr.centers)),
		GrowthSteps: gr.steps,
		Batches:     batches,
		Stats:       gr.e.Stats(),
	}
	for u, o := range gr.owner {
		if o >= 0 && gr.dist[u] > c.Radii[o] {
			c.Radii[o] = gr.dist[u]
		}
	}
	return c
}
