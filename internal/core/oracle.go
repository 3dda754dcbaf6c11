package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/bsp"
	"repro/internal/graph"
	"repro/internal/quotient"
)

// Oracle is the linear-space approximate distance oracle sketched at the
// end of Section 4: run CLUSTER2(τ) with τ = O(sqrt(n)/log⁴n), store the
// all-pairs shortest-path matrix of the weighted quotient graph (O(n)
// space for that τ), and answer queries in O(1) via
//
//	d'(u, v) = Dist[u] + apsp[cluster(u)][cluster(v)] + Dist[v],
//
// an upper bound on d(u, v) within O(d(u,v)·log³n + R_ALG2) with high
// probability — polylogarithmic for far-apart pairs.
//
// The tables are stored row-major in flat slices (stride k = NumClusters),
// and the per-node cluster/offset lookups alias the clustering's own flat
// arrays, so a warm Query is two array reads (owner, dist — per endpoint)
// and one table index with zero pointer chasing: no [][]row indirection,
// no per-row cache miss. QueryBatchInto answers whole pair slices against
// the same layout without allocating.
//
// A cell is as wide as its values, six bytes a cluster pair: a quotient
// distance is at most 2·ΣRadii + k − 1 (narrowCellsFit), a hop count is
// below k <= maxOracleClusters. The APSP kernels write these cells, the
// queries widen one on read, and the snapshot codec stores them as they are;
// there is no other layout.
type Oracle struct {
	clustering *Clustering
	k          int            // quotient size; the stride of apsp/hops
	apsp       []uint32       // weighted quotient APSP, row-major k×k; graph.InfDist32 when unreachable
	hops       []uint16       // unweighted quotient APSP (certified lower bounds), row-major k×k; graph.InfHops when unreachable
	owner      []graph.NodeID // flat cluster-of lookup, aliases clustering.Owner
	dist       []int32        // flat distance-to-center lookup, aliases clustering.Dist
	apspStats  bsp.Stats      // aggregate cost of the quotient APSP build
}

// newOracle wires the flat lookup aliases; every constructor funnels
// through it so the hot path never reaches back through the clustering.
func newOracle(cl *Clustering, k int, apsp []uint32, hops []uint16, stats bsp.Stats) *Oracle {
	return &Oracle{
		clustering: cl,
		k:          k,
		apsp:       apsp,
		hops:       hops,
		owner:      cl.Owner,
		dist:       cl.Dist,
		apspStats:  stats,
	}
}

// DefaultOracleTau returns the paper's suggested granularity for an
// oracle over an n-node graph: τ = sqrt(n)/log⁴n, at least 1.
func DefaultOracleTau(n int) int {
	logn := log2n(n)
	tau := int(math.Sqrt(float64(n)) / (logn * logn * logn * logn))
	if tau < 1 {
		tau = 1
	}
	return tau
}

// maxOracleClusters caps the quadratic APSP table; beyond this the
// "linear space" promise is clearly broken for the intended scales.
const maxOracleClusters = 8192

// narrowCellsFit reports whether the quotient of a decomposition with these
// cluster radii and heaviest quotient arc maxW can be searched and stored in
// uint32 cells. A finite quotient distance runs along a simple path over
// distinct clusters whose every arc weighs at most the two radii it joins
// plus one, so it is at most 2·Σradii + k − 1; the SSSP kernel adds one more
// arc to a settled distance before it compares, and needs that sum below
// 2³¹ (see graph/apsp.go).
func narrowCellsFit(radii []int32, maxW int32) bool {
	bound := int64(len(radii)) + int64(maxW)
	for _, r := range radii {
		bound += 2 * int64(r)
	}
	return bound < 1<<31
}

// BuildOracle constructs a distance oracle over g. If tau <= 0,
// DefaultOracleTau is used. useCluster2 selects the theory-faithful
// decomposition (slower; plain CLUSTER matches the experimental pipeline).
// Cancelling ctx aborts the build at the next superstep barrier (or, in the
// APSP phase, before the next source) and returns ctx.Err().
func BuildOracle(ctx context.Context, g *graph.Graph, tau int, useCluster2 bool, opt Options) (*Oracle, error) {
	n := g.NumNodes()
	if n == 0 {
		return nil, errors.New("core: oracle over empty graph")
	}
	if tau <= 0 {
		tau = DefaultOracleTau(n)
	}
	var (
		cl  *Clustering
		err error
	)
	if useCluster2 {
		cl, err = Cluster2Context(ctx, g, tau, opt)
	} else {
		cl, err = ClusterContext(ctx, g, tau, opt)
	}
	if err != nil {
		return nil, err
	}
	return OracleFromClustering(ctx, cl, opt)
}

// OracleFromClustering builds the oracle tables from an existing
// decomposition. The quotient has at most maxOracleClusters nodes, so — as
// in the paper, which solves it inside one reducer's local memory — every
// search is sequential and cache-resident: a Dial bucket-queue SSSP per
// source for the weighted rows, one bit-parallel BFS per block of
// graph.APSPBlock consecutive sources for the hop rows (see
// graph.APSPScratch). The parallelism is across blocks: opt.Workers
// goroutines, each with its own scratch, claim them from a shared counter.
// The tables are identical to a Dijkstra+BFS build at every worker count,
// and the kernels write them in place: the build allocates the 6·k² bytes it
// returns and O(k) scratch per worker, never a wider table (a decomposition
// whose distances could overflow a cell is refused first — narrowCellsFit).
// Cancelling ctx stops every worker before its next source and returns
// ctx.Err(); opt.Observer receives one delta per completed block, and the
// deltas sum to APSPStats.
func OracleFromClustering(ctx context.Context, cl *Clustering, opt Options) (*Oracle, error) {
	k := cl.NumClusters()
	if k > maxOracleClusters {
		return nil, fmt.Errorf("%w: %d clusters exceed the oracle cap %d; lower tau", ErrInfeasible, k, maxOracleClusters)
	}
	_, wq, err := quotient.Contract(cl.G, cl.Owner, cl.Dist, k, opt.Workers)
	if err != nil {
		return nil, err
	}
	if !narrowCellsFit(cl.Radii, wq.MaxWeight()) {
		return nil, fmt.Errorf("%w: cluster radii overflow the oracle's 32-bit cells (2·Σradii + k + heaviest quotient arc must stay below 2³¹)", ErrInfeasible)
	}
	blocks := (k + graph.APSPBlock - 1) / graph.APSPBlock
	workers := min(bsp.Workers(opt.Workers), blocks)
	// The tables are row-major flat arrays; a worker owns the disjoint rows
	// [lo*k, hi*k) of the block it claimed, so the writes need no
	// synchronization and the kernels fill the final storage directly.
	apsp := make([]uint32, k*k)
	hops := make([]uint16, k*k)
	var (
		next    atomic.Int64
		wg      sync.WaitGroup
		statsMu sync.Mutex
		stats   bsp.Stats
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			scratch := wq.NewAPSPScratch()
			for {
				b := int(next.Add(1)) - 1
				if b >= blocks {
					return
				}
				lo, hi := b*graph.APSPBlock, min((b+1)*graph.APSPBlock, k)
				var delta bsp.Stats
				for c := lo; c < hi; c++ {
					if ctx.Err() != nil {
						return // the build is about to be discarded
					}
					arcs, buckets := scratch.SSSP(graph.NodeID(c), apsp[c*k:(c+1)*k])
					delta.Relaxations += arcs
					delta.Buckets += buckets
				}
				delta.Messages = delta.Relaxations
				delta.Rounds = scratch.HopRows(graph.NodeID(lo), hops[lo*k:hi*k])
				statsMu.Lock()
				stats.Add(delta)
				statsMu.Unlock()
				if opt.Observer != nil {
					opt.Observer(delta) // concurrent across workers; the Observer contract requires thread safety
				}
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return newOracle(cl, k, apsp, hops, stats), nil
}

// OracleFromParts reassembles an oracle from its persisted parts: the
// decomposition plus the two quotient APSP tables, row-major flat with
// stride k = cl.NumClusters() (weighted distances and hop counts — what
// Tables returns and the snapshot codec writes). It validates that the
// table dimensions are mutually consistent so a corrupted snapshot cannot
// produce an oracle that panics on query.
func OracleFromParts(cl *Clustering, apsp []uint32, hops []uint16) (*Oracle, error) {
	if cl == nil || cl.G == nil {
		return nil, errors.New("core: OracleFromParts: nil clustering")
	}
	n, k := cl.G.NumNodes(), cl.NumClusters()
	if len(cl.Owner) != n || len(cl.Dist) != n {
		return nil, fmt.Errorf("core: OracleFromParts: owner/dist length %d/%d, want %d",
			len(cl.Owner), len(cl.Dist), n)
	}
	if len(apsp) != k*k || len(hops) != k*k {
		return nil, fmt.Errorf("core: OracleFromParts: %d apsp / %d hop entries for %d clusters (want %d)",
			len(apsp), len(hops), k, k*k)
	}
	for u := 0; u < n; u++ {
		if cl.Owner[u] < 0 || int(cl.Owner[u]) >= k {
			return nil, fmt.Errorf("core: OracleFromParts: node %d owner %d out of range", u, cl.Owner[u])
		}
	}
	return newOracle(cl, k, apsp, hops, bsp.Stats{}), nil
}

// Clustering exposes the oracle's underlying decomposition.
func (o *Oracle) Clustering() *Clustering { return o.clustering }

// Tables returns the two quotient tables as stored, row-major flat: entry
// (c, d) is at index c*NumClusters()+d, graph.InfDist32 / graph.InfHops
// when d is unreachable from c. They alias internal storage and must not be
// modified; the snapshot codec writes them out with no copy.
func (o *Oracle) Tables() (apsp []uint32, hops []uint16) { return o.apsp, o.hops }

// APSPFlat returns the weighted quotient all-pairs table widened to int64
// (graph.InfDist when unreachable), row-major flat as in Tables. It is an
// O(k²) copy for diagnostics and tests — call it once, outside any loop —
// and is on no build, serving or snapshot path.
func (o *Oracle) APSPFlat() []int64 { return widen(o.apsp) }

// HopsFlat returns the hop table widened to int64; see APSPFlat.
func (o *Oracle) HopsFlat() []int64 { return widen(o.hops) }

// widen copies narrow cells to int64; the all-ones cell of either width is
// the unreachable mark and becomes graph.InfDist.
func widen[T uint32 | uint16](cells []T) []int64 {
	out := make([]int64, len(cells))
	for i, c := range cells {
		out[i] = int64(c)
		if c == ^T(0) {
			out[i] = graph.InfDist
		}
	}
	return out
}

// NumClusters returns the size of the quotient graph (rows of the APSP
// table).
func (o *Oracle) NumClusters() int { return o.k }

// APSPStats returns the cost of the quotient APSP build, in counters that
// depend on the quotient alone — not on the worker count or any schedule:
// Relaxations = Messages = arcs scanned by the bucket-queue searches (the
// degrees of the nodes each source reaches, summed over sources), Buckets =
// non-empty unit-width buckets settled (distinct finite distances, summed
// over sources), Rounds = bit-parallel BFS sweeps (the largest hop
// eccentricity in each block of graph.APSPBlock sources, summed over
// blocks). Zero for oracles reassembled from snapshots.
func (o *Oracle) APSPStats() bsp.Stats { return o.apspStats }

// LowerQuery returns a certified lower bound on the distance between u and
// v: the hop distance between their clusters in the quotient graph (every
// G-path from u to v crosses at least that many inter-cluster edges).
// Same-cluster pairs get 0. The bound is stored as part of the APSP table's
// companion hop matrix.
func (o *Oracle) LowerQuery(u, v graph.NodeID) int64 {
	if u == v {
		return 0
	}
	cu, cv := o.owner[u], o.owner[v]
	if cu == cv {
		return 0
	}
	if h := o.hops[int(cu)*o.k+int(cv)]; h != graph.InfHops {
		return int64(h)
	}
	return graph.InfDist
}

// Query returns an upper bound on the distance between u and v, or
// graph.InfDist if they are in different connected components.
func (o *Oracle) Query(u, v graph.NodeID) int64 {
	if u == v {
		return 0
	}
	cu, cv := o.owner[u], o.owner[v]
	if cu == cv {
		// Same cluster: go through the center.
		return int64(o.dist[u]) + int64(o.dist[v])
	}
	mid := o.apsp[int(cu)*o.k+int(cv)]
	if mid == graph.InfDist32 {
		return graph.InfDist
	}
	return int64(o.dist[u]) + int64(mid) + int64(o.dist[v])
}

// QueryBatchInto answers pairs[i] = (u, v) into out[i], exactly as Query
// would pair by pair (graph.InfDist for cross-component pairs). It is the
// oracle's batch hot path: a single pass over the flat tables with zero
// allocation, so callers can pool and reuse both slices across requests.
// Every id must already be validated in [0, n); out must have len(pairs).
// Zero allocations, pinned by TestQueryBatchZeroAllocs.
func (o *Oracle) QueryBatchInto(pairs [][2]graph.NodeID, out []int64) {
	_ = out[:len(pairs)] // one bounds check, not one per pair
	owner, dist, apsp, k := o.owner, o.dist, o.apsp, o.k
	for i, p := range pairs {
		u, v := p[0], p[1]
		if u == v {
			out[i] = 0
			continue
		}
		cu, cv := owner[u], owner[v]
		if cu == cv {
			out[i] = int64(dist[u]) + int64(dist[v])
			continue
		}
		mid := apsp[int(cu)*k+int(cv)]
		if mid == graph.InfDist32 {
			out[i] = graph.InfDist
			continue
		}
		out[i] = int64(dist[u]) + int64(mid) + int64(dist[v])
	}
}
