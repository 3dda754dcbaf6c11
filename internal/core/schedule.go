package core

import (
	"repro/internal/graph"
	"repro/internal/rng"
)

// ClusterTag is the coin tag of CLUSTER(τ) proper: core.ClusterContext and
// mr.Engine.Cluster pass the same one, which is why they flip the same
// coins and activate the same centers.
const ClusterTag uint64 = 0xc105_7e12

// Growth is what the CLUSTER(τ) batch schedule needs from a cluster grower.
// Three growers implement it: the BSP grower of this package (one
// superstep per Step), the delta-stepping growth of WeightedCluster (one
// bucket per Step), and the MapReduce growth of mr.Engine.Cluster (one
// GrowStep round per Step, one selection round per SelectUncovered).
type Growth interface {
	// Uncovered returns the number of nodes no cluster has covered yet.
	Uncovered() int
	// Covered reports whether u is covered.
	Covered(u graph.NodeID) bool
	// SelectUncovered appends to dst, in ascending id order, every
	// uncovered node for which pick returns true. pick is a pure function
	// of the node and may be called concurrently.
	SelectUncovered(dst []graph.NodeID, pick func(graph.NodeID) bool) ([]graph.NodeID, error)
	// AddCenter makes the uncovered node u the center of a new cluster,
	// numbered in call order; a center covers itself.
	AddCenter(u graph.NodeID)
	// Idle reports that no active cluster can grow any further.
	Idle() bool
	// Step grows every active cluster by one step and returns the number
	// of newly covered nodes; live is false once a step finds no work.
	Step() (claimed int, live bool, err error)
}

// The paper's constants in Algorithm 1's batch policy.
const (
	centerFactor    = 4.0 // selection probability centerFactor·τ·log n / |uncovered|
	thresholdFactor = 8.0 // loop guard |uncovered| ≥ thresholdFactor·τ·log n
)

// Schedule drives gr through the batches of the paper's Algorithm 1 over an
// n-node graph and returns their number: while at least
// thresholdFactor·τ·log n nodes are uncovered, every uncovered node becomes
// a center with probability centerFactor·τ·log n / |uncovered| — its coin is
// a hash of (Seed, tag, τ, batch, node), so each caller's tag keeps its
// coins apart and the flips do not depend on the grower — and all clusters,
// old and new, grow until the batch has covered half of what was uncovered
// at its start. Two guards keep it terminating on any input: a batch ends
// early once no cluster can grow, and a batch that samples nobody while
// nothing can grow takes the lowest-id uncovered node. What is left when
// the loop ends is the caller's tail (singletons, or a drain).
//
// Cancellation is the grower's: its engine carries the context
// (SetContext) and Step returns the error at the next barrier, which ends
// the schedule.
func (opt Options) Schedule(gr Growth, n, tau int, tag uint64) (batches int, err error) {
	logn := log2n(n)
	threshold := thresholdFactor * float64(tau) * logn
	coins := rng.Mix64(opt.Seed, tag, uint64(tau))
	var centers []graph.NodeID
	for float64(gr.Uncovered()) >= threshold {
		uncovered := gr.Uncovered()
		p := centerFactor * float64(tau) * logn / float64(uncovered)
		batch := uint64(batches)
		centers, err = gr.SelectUncovered(centers[:0], func(u graph.NodeID) bool {
			return rng.Coin(p, coins, batch, uint64(u))
		})
		if err != nil {
			return batches, err
		}
		if len(centers) == 0 && gr.Idle() {
			u := graph.NodeID(0)
			for gr.Covered(u) {
				u++
			}
			centers = append(centers, u)
		}
		for _, u := range centers {
			gr.AddCenter(u)
		}
		batches++
		target := (uncovered + 1) / 2
		for claimed := len(centers); claimed < target; {
			got, live, err := gr.Step()
			if err != nil {
				return batches, err
			}
			if !live {
				break
			}
			claimed += got
		}
	}
	return batches, nil
}
