// Package anf implements the ANF/HADI neighborhood-function baseline
// (Palmer, Gibbons, Faloutsos KDD 2002 [23]; Kang et al.'s MapReduce
// version HADI [16]), the second competitor of the paper's Table 4.
//
// Every node keeps K Flajolet–Martin bitmask registers summarizing the set
// of nodes within distance t; one synchronous round ORs each node's
// sketches with its neighbors'. The neighborhood function
// N(t) = |{(u,v) : dist(u,v) <= t}| is estimated per round, and the process
// stops when the sketches saturate, which happens after roughly diameter
// many rounds. HADI therefore needs Θ(∆) rounds with Θ(m·K) communication
// per round — the cost profile that makes it orders of magnitude slower
// than the clustering-based estimator on long-diameter graphs, despite its
// very accurate (slightly under-estimating) diameter figure.
package anf

import (
	"context"
	"errors"
	"math"
	"math/bits"
	"slices"
	"time"

	"repro/internal/bsp"
	"repro/internal/graph"
	"repro/internal/rng"
)

// Options configures an ANF run.
type Options struct {
	// K is the number of Flajolet–Martin registers per node (more registers
	// tighten the estimate at proportional memory/communication cost).
	// Default 32.
	K int
	// Seed drives the per-node register initialization.
	Seed uint64
	// Workers is the BSP parallelism (non-positive = GOMAXPROCS).
	Workers int
	// MaxRounds caps the iteration count (0 = 4n+4, effectively unlimited).
	MaxRounds int
}

// effectivePercentile is the quantile of reachable pairs defining the
// effective diameter, 0.9 as in the ANF/HADI papers.
const effectivePercentile = 0.9

// Result reports an ANF execution.
type Result struct {
	// DiameterEstimate is the round at which the sketches saturated — an
	// estimate of (and typically a slight underestimate of) the diameter.
	DiameterEstimate int32
	// EffectiveDiameter is the interpolated t at which N(t) reaches 90 %
	// of its final value (effectivePercentile).
	EffectiveDiameter float64
	// Neighborhood holds the estimates N(0), N(1), ..., N(DiameterEstimate).
	Neighborhood []float64
	// Rounds is the number of BSP rounds executed (= DiameterEstimate + 1:
	// saturation is detected one round after the last change).
	Rounds int
	// MessagesWords is the aggregate communication volume in 32-bit words:
	// K registers per arc actually combined. The active-set execution only
	// recombines nodes with a changed neighbor, so this is at most
	// Rounds·2m·K (the dense HADI volume) and typically far less on
	// long-diameter graphs, where most sketches are stable most rounds.
	MessagesWords int64
	// Stats carries the engine's superstep counters (rounds, pull rounds,
	// largest frontier); its Messages are the frontier-membership probes
	// plus the arcs the combine scans.
	Stats bsp.Stats
	// Elapsed is the wall-clock time.
	Elapsed time.Duration
}

// phi is the Flajolet–Martin bias correction constant.
const phi = 0.77351

// Run executes ANF on g until the sketches saturate. The rounds run on
// the traversal engine as active-set supersteps: the frontier holds the
// nodes whose sketch changed last round, nothing is visited, and a step's
// callback recombines the nodes with at least one neighbor in it (everyone
// else's sketch provably cannot change). That preserves the dense
// round-by-round semantics, and thus the saturation-round diameter
// estimate, while skipping the dead arc scans.
// The loop checks ctx at the superstep barriers and returns ctx.Err(), and
// no result, once it is cancelled; an uncancelled run is bit-for-bit
// deterministic in (seed, K) across worker counts.
func Run(ctx context.Context, g *graph.Graph, opt Options) (*Result, error) {
	start := time.Now() //lint:allow walltime accounting-only: Elapsed never influences sketch updates
	n := g.NumNodes()
	if n == 0 {
		return nil, errors.New("anf: empty graph")
	}
	k := opt.K
	if k <= 0 {
		k = 32
	}
	maxRounds := opt.MaxRounds
	if maxRounds <= 0 {
		maxRounds = 4*n + 4
	}
	seed := rng.Mix64(opt.Seed, 0xa7f_0001)
	e := bsp.NewEngine(g, bsp.Workers(opt.Workers))
	defer e.Close()
	e.SetContext(ctx)

	// Initialize sketches: node u sets, in each register, one bit drawn
	// geometrically (bit b with probability 2^-(b+1)).
	cur := make([]uint32, n*k)
	next := make([]uint32, n*k)
	e.For(n, func(_, lo, hi int) {
		for u := lo; u < hi; u++ {
			for r := 0; r < k; r++ {
				h := rng.Mix64(seed, uint64(u), uint64(r))
				b := bits.TrailingZeros64(h | (1 << 31)) // cap at bit 31
				cur[u*k+r] = 1 << uint(b)
			}
		}
	})
	all := make([]graph.NodeID, n)
	for i := range all {
		all[i] = graph.NodeID(i)
	}
	e.SetFrontier(all) // round 0: every node's sketch just initialized

	res := &Result{Neighborhood: []float64{neighborhoodEstimate(cur, n, k)}}
	// The FM combine: copy v's own sketch, OR in each neighbor's pre-round
	// sketch, and list v as changed if anything did. The engine counts its
	// own probes; combineArcs counts these scans.
	combineArcs := make([]int64, e.NumWorkers())
	changedBy := make([][]graph.NodeID, e.NumWorkers())
	combine := func(w int, v, _ graph.NodeID) {
		nbrs := g.Neighbors(v)
		combineArcs[w] += int64(len(nbrs))
		base := int(v) * k
		copy(next[base:base+k], cur[base:base+k])
		for _, u := range nbrs {
			nb := int(u) * k
			for r := 0; r < k; r++ {
				next[base+r] |= cur[nb+r]
			}
		}
		if !slices.Equal(next[base:base+k], cur[base:base+k]) {
			changedBy[w] = append(changedBy[w], v)
		}
	}
	var changed []graph.NodeID
	for res.Rounds < maxRounds && e.FrontierLen() > 0 {
		for w := range changedBy {
			changedBy[w] = changedBy[w][:0]
		}
		e.Step(combine)
		res.Rounds++
		// Commit the changed sketches (the untouched ones are already
		// identical in cur).
		changed = changed[:0]
		for _, c := range changedBy {
			changed = append(changed, c...)
		}
		e.For(len(changed), func(_, lo, hi int) {
			for _, u := range changed[lo:hi] {
				base := int(u) * k
				copy(cur[base:base+k], next[base:base+k])
			}
		})
		// The step claimed every candidate; only the changed ones go on,
		// and sketches keep changing, so no node may stay visited.
		if len(changed) == 0 {
			break
		}
		e.Reset()
		e.SetFrontier(changed)
		res.DiameterEstimate = int32(res.Rounds)
		res.Neighborhood = append(res.Neighborhood, neighborhoodEstimate(cur, n, k))
	}
	if err := e.Err(); err != nil {
		return nil, err
	}
	// Account the registers actually combined.
	var arcs int64
	for _, a := range combineArcs {
		arcs += a
	}
	res.MessagesWords = arcs * int64(k)
	res.Stats = e.Stats()
	res.Stats.Messages += arcs
	res.EffectiveDiameter = effectiveDiameter(res.Neighborhood, effectivePercentile)
	res.Elapsed = time.Since(start)
	return res, nil
}

// neighborhoodEstimate sums the per-node FM estimates of |B(u, t)|.
func neighborhoodEstimate(sk []uint32, n, k int) float64 {
	total := 0.0
	for u := 0; u < n; u++ {
		base := u * k
		sum := 0
		for r := 0; r < k; r++ {
			sum += bits.TrailingZeros32(^sk[base+r])
		}
		mean := float64(sum) / float64(k)
		total += math.Pow(2, mean) / phi
	}
	return total
}

// effectiveDiameter interpolates the smallest t with N(t) >= q*N(final).
func effectiveDiameter(nfn []float64, q float64) float64 {
	if len(nfn) == 0 {
		return 0
	}
	target := q * nfn[len(nfn)-1]
	for t := 0; t < len(nfn); t++ {
		if nfn[t] >= target {
			if t == 0 {
				return 0
			}
			// Linear interpolation between t-1 and t.
			prev, cur := nfn[t-1], nfn[t]
			if cur == prev {
				return float64(t)
			}
			return float64(t-1) + (target-prev)/(cur-prev)
		}
	}
	return float64(len(nfn) - 1)
}
