// Package mpx implements the parallel graph decomposition of Miller, Peng
// and Xu (SPAA 2013, [22] in the paper), the competitor evaluated in the
// paper's Table 2.
//
// Every node u draws an exponential shift δ_u ~ Exp(β); conceptually a BFS
// starts from u at time δ_max − δ_u unless u has already been covered, and
// every node joins the cluster of the center minimizing
// dist(u, v) − δ_u. Larger β yields more clusters of smaller radius; the
// expected maximum radius is O(log n / β) and the expected number of
// inter-cluster edges is O(β·m).
//
// The implementation runs on the BSP substrate with unit time steps:
// fractional arrival times are resolved inside each round by a min over
// packed (arrival, cluster) words, which makes the outcome deterministic
// (ties break toward the smaller cluster id) and independent of the
// goroutine schedule. The claim is a min over keys, not over node ids, so
// the rounds are the engine's gather steps rather than its claim steps: an
// uncovered node reads its neighbors' words, which the round leaves alone,
// and its own new word is committed at the barrier.
package mpx

import (
	"context"
	"errors"
	"math"

	"repro/internal/bsp"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/rng"
)

// Options configures a decomposition run.
type Options struct {
	// Beta is the rate of the exponential shift distribution; must be > 0.
	Beta float64
	// Seed drives the shift draws (hash-based per node, so the decomposition
	// is reproducible across schedules and worker counts).
	Seed uint64
	// Workers is the BSP parallelism (non-positive = GOMAXPROCS).
	Workers int
}

const slotSentinel = ^uint64(0)

func pack(arrival float32, cluster int32) uint64 {
	return uint64(rng.SortableFloat32Bits(arrival))<<32 | uint64(uint32(cluster))
}

func unpack(word uint64) (float32, int32) {
	return rng.FromSortableFloat32Bits(uint32(word >> 32)), int32(uint32(word))
}

// Decompose partitions g with the MPX random-shift process and returns the
// result in the shared Clustering form (owners, growth distances, centers,
// radii, BSP stats). The round loop checks ctx at the superstep barriers
// (never inside a round) and returns ctx.Err() within one round of a
// cancel. The checks never influence the rounds an uncancelled run
// executes, so the decomposition stays bit-for-bit deterministic in
// (seed, beta) across worker counts.
func Decompose(ctx context.Context, g *graph.Graph, opt Options) (*core.Clustering, error) {
	if opt.Beta <= 0 {
		return nil, errors.New("mpx: Beta must be positive")
	}
	n := g.NumNodes()
	if n == 0 {
		return nil, errors.New("mpx: empty graph")
	}
	seed := rng.Mix64(opt.Seed, 0x3b9a_ca07)
	e := bsp.NewEngine(g, bsp.Workers(opt.Workers))
	defer e.Close()

	// Draw shifts and derive start times start(u) = δmax − δu.
	delta := make([]float64, n)
	e.For(n, func(_, lo, hi int) {
		for u := lo; u < hi; u++ {
			delta[u] = rng.ExpAt(opt.Beta, seed, uint64(u))
		}
	})
	deltaMax := 0.0
	for _, d := range delta {
		if d > deltaMax {
			deltaMax = d
		}
	}
	start := make([]float64, n)
	maxBucket := 0
	for u := 0; u < n; u++ {
		start[u] = deltaMax - delta[u]
		if b := int(start[u]); b > maxBucket {
			maxBucket = b
		}
	}
	// Activation buckets: nodes whose start time falls in [t, t+1).
	buckets := make([][]graph.NodeID, maxBucket+1)
	for u := 0; u < n; u++ {
		b := int(start[u])
		buckets[b] = append(buckets[b], graph.NodeID(u))
	}

	slot := make([]uint64, n)
	for i := range slot {
		slot[i] = slotSentinel
	}
	var centers []graph.NodeID
	centerStart := make([]float64, 0, 64)

	// One unit step: every uncovered node next to the frontier takes the
	// least (arrival+1, cluster) its covered neighbors offer. All of those
	// are in the frontier — a neighbor covered any earlier would have
	// covered the node in the round after its own — so the min needs no
	// membership test, and it reads only words this round does not write:
	// the winner waits in pending until the barrier commits it.
	pending := make([]uint64, n)
	claim := func(_ int, v graph.NodeID) bool {
		best := slotSentinel
		for _, u := range g.Neighbors(v) {
			if word := slot[u]; word != slotSentinel {
				arr, owner := unpack(word)
				best = min(best, pack(arr+1, owner))
			}
		}
		pending[v] = best
		return true
	}
	covered := 0
	for t := 0; covered < n || e.FrontierLen() > 0; t++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Phase 1 (sequential, per round): activate this bucket's centers.
		// A node starts its own cluster unless something reached it strictly
		// earlier than its own start time.
		if t < len(buckets) {
			for _, u := range buckets[t] {
				cur := slot[u]
				arr, _ := unpack(cur)
				if cur != slotSentinel && float64(arr) <= start[u] {
					continue // covered before (or exactly at) its start
				}
				id := int32(len(centers))
				centers = append(centers, u)
				centerStart = append(centerStart, start[u])
				slot[u] = pack(float32(start[u]), id)
				if cur == slotSentinel {
					// First claim: join the frontier (an already-covered
					// node taking over as its own center is still in the
					// current frontier from the round that claimed it).
					e.Seed(u)
					covered++
				}
			}
		}
		if e.FrontierLen() == 0 {
			continue // wait for the next activation bucket
		}
		// Phase 2: expand all active clusters by one unit step, then commit
		// the round's claims.
		rs := e.GatherStep(claim)
		claimed := e.Frontier()
		e.For(len(claimed), func(_, lo, hi int) {
			for _, v := range claimed[lo:hi] {
				slot[v] = pending[v]
			}
		})
		e.VisitFrontier() // covered for good: no later round offers them
		covered += rs.Claimed
		if t > 2*n+int(deltaMax)+4 {
			return nil, errors.New("mpx: failed to converge (internal error)")
		}
	}
	stats := e.Stats()

	// Assemble the clustering: hop distance from the center is recovered
	// from the arrival time, dist = arrival − start(center).
	cl := &core.Clustering{
		G:       g,
		Owner:   make([]graph.NodeID, n),
		Dist:    make([]int32, n),
		Centers: centers,
		Radii:   make([]int32, len(centers)),
		Stats:   stats,
		Batches: len(buckets),
	}
	cl.GrowthSteps = stats.Rounds
	for u := 0; u < n; u++ {
		arr, owner := unpack(slot[u])
		cl.Owner[u] = graph.NodeID(owner)
		d := int32(math.Round(float64(arr) - centerStart[owner]))
		if d < 0 {
			d = 0
		}
		cl.Dist[u] = d
		if d > cl.Radii[owner] {
			cl.Radii[owner] = d
		}
	}
	return cl, nil
}

// BetaForTargetClusters searches for a β that makes Decompose return
// roughly target clusters (cluster count increases with β). Mirrors
// core.TauForTargetClusters so experiments can match granularities, giving
// MPX "a comparable but larger number of clusters" as the paper does.
// Every trial decomposition runs under ctx, so a cancel stops the search
// within one round and returns ctx.Err().
func BetaForTargetClusters(ctx context.Context, g *graph.Graph, target int, tolerance float64, opt Options) (float64, *core.Clustering, error) {
	if target < 1 {
		return 0, nil, errors.New("mpx: target clusters must be >= 1")
	}
	beta := opt.Beta
	if beta <= 0 {
		beta = 0.1
	}
	var best *core.Clustering
	bestBeta := beta
	bestGap := math.Inf(1)
	lo, hi := 0.0, math.Inf(1)
	for iter := 0; iter < 24; iter++ {
		o := opt
		o.Beta = beta
		cl, err := Decompose(ctx, g, o)
		if err != nil {
			return 0, nil, err
		}
		got := cl.NumClusters()
		gap := math.Abs(float64(got-target)) / float64(target)
		if gap < bestGap {
			best, bestBeta, bestGap = cl, beta, gap
		}
		if gap <= tolerance {
			return beta, cl, nil
		}
		if got < target {
			lo = beta
			if math.IsInf(hi, 1) {
				beta *= 2
			} else {
				beta = (lo + hi) / 2
			}
		} else {
			hi = beta
			beta = (lo + hi) / 2
		}
	}
	return bestBeta, best, nil
}
