package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"

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
// The quotient is undirected, so each table is stored once, as a strict
// lower triangle in a flat slice: row d holds the cells (d, 0 … d−1), so the
// pair c < d sits at d(d−1)/2 + c whatever k is, and the diagonal is implied
// (a same-cluster pair never reads a table). The per-node cluster/offset
// lookups alias the clustering's own flat arrays, so a warm Query is two
// array reads (owner, dist — per endpoint) and one table index with zero
// pointer chasing. QueryBatchInto answers whole pair slices against the same
// layout without allocating.
//
// A cell is as wide as its values, six bytes an unordered cluster pair (a
// u32 distance, a u16 hop count): a quotient distance is at most
// 2·ΣRadii + k − 1 (narrowCellsFit), a hop count is below
// k <= maxOracleClusters. The build copies each row's prefix out of the
// kernels' own rows, the queries widen one cell on read, and the snapshot
// codec stores the triangles as they are; there is no other layout.
type Oracle struct {
	clustering *Clustering
	k          int            // quotient size
	apsp       []uint32       // weighted quotient APSP, strict lower triangle; graph.InfDist32 when unreachable
	hops       []uint16       // unweighted quotient APSP (certified lower bounds), strict lower triangle; graph.InfHops when unreachable
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

// quotientDistBound bounds every finite distance in the quotient of a
// decomposition with these cluster radii: a shortest path runs over distinct
// clusters, and its every arc weighs at most the two radii it joins plus
// one, so it is at most 2·Σradii + k − 1.
func quotientDistBound(radii []int32) int64 {
	bound := int64(len(radii)) - 1
	for _, r := range radii {
		bound += 2 * int64(r)
	}
	return bound
}

// narrowCellsFit reports whether the quotient of a decomposition with these
// cluster radii and heaviest quotient arc maxW can be searched and stored in
// uint32 cells: the SSSP kernel adds one more arc to a settled distance
// before it compares, and needs that sum below 2³¹ (see graph/apsp.go), with
// one to spare.
func narrowCellsFit(radii []int32, maxW int32) bool {
	return quotientDistBound(radii)+int64(maxW) < 1<<31-1
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
		cl, err = Cluster2(ctx, g, tau, opt)
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
// row is computed sequentially and cache-resident (see graph.APSPScratch).
// Only the clusters outside an independent set I of the quotient get rows
// of their own (I is taken greedily by degree, then id:
// graph.Weighted.IndependentSet, about half the clusters of a road-like
// quotient). For t ≠ x, d(x, t) is the least w(x, u) + d(u, t) over x's
// neighbours u, and the hop count one more than the least h(u, t); no
// neighbour of x ∈ I is in I, so I's rows follow from computed cells.
//
// The weighted rows come through a graph.Overlay of the quotient, built
// once, sequentially, from the quotient alone: level 0 eliminates I, each
// later level the greedy independent set of what the last left, adding
// shortcuts, until a level would not lower the edge count or would let a
// core search overflow (checked against quotientDistBound, so a
// decomposition narrowCellsFit accepts is never refused — it contracts
// fewer levels, down to none). A row lifts its source to the core, runs one
// seeded Dial search on the core and sweeps back down the levels.
//
// The build is two passes over the opt.Workers workers of one bsp.Pool,
// each worker with its own scratch and Stats, summed after the barrier:
//   - searches: workers claim blocks of graph.APSPBlock sources outside I.
//     Each source computes its overlay row, and each block runs one
//     bit-parallel BFS of the whole quotient for its hop rows. A source c
//     copies its row prefix (c, 0 … c−1) into the triangles and its cells
//     at every t > c in I into (t, c), rows no search fills.
//   - merges: workers claim blocks of I's members. Each x ∈ I fills its
//     cells (x, t) for the t < x in I from its neighbours' cells.
//
// The tables are identical to a Dijkstra+BFS build at every worker count.
// The build allocates the 3·k(k−1) bytes it returns, O(quotient arcs) for
// the overlay and O(k) scratch per worker, never a square or wider table
// (a decomposition whose distances could overflow a cell is refused first —
// narrowCellsFit). Cancelling ctx stops every worker before its next source
// or merged row and returns ctx.Err(); opt.Observer receives one delta per
// completed block of either pass, and the deltas sum to APSPStats.
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
	ov := graph.NewOverlay(wq, quotientDistBound(cl.Radii))
	set, rest := wq.IndependentSet()
	searchBlocks := (len(rest) + graph.APSPBlock - 1) / graph.APSPBlock
	mergeBlocks := (len(set) + graph.APSPBlock - 1) / graph.APSPBlock
	workers := max(1, min(bsp.Workers(opt.Workers), max(searchBlocks, mergeBlocks)))
	pool := bsp.NewPool(workers)
	defer pool.Close()
	// Each worker searches with its own scratch and counts into its own
	// Stats. A search from c writes triangle row c and the cells (t, c) of
	// the rows t > c in set; a merge of x writes the cells (x, t) with t in
	// set. No cell is written twice, so the writes need no synchronization,
	// and the merges read only cells the searches wrote before the barrier
	// between the two passes.
	type apspWorker struct {
		scratch *graph.APSPScratch
		row     []uint32
		block   []uint16
		stats   bsp.Stats
	}
	ws := make([]apspWorker, workers)
	apsp := make([]uint32, triangle(k))
	hops := make([]uint16, triangle(k))
	report := func(aw *apspWorker, delta bsp.Stats) {
		delta.Messages = delta.Relaxations
		aw.stats.Add(delta)
		if opt.Observer != nil {
			opt.Observer(delta) // concurrent across workers; the Observer contract requires thread safety
		}
	}
	pool.Claim(searchBlocks, 1, func(w, first, last int) {
		aw := &ws[w]
		if aw.scratch == nil {
			// Allocated by the worker that uses it: scratch allocated back
			// to back by one goroutine shares cache lines (the Dial ring's
			// occupancy bitmap is one word), and two workers writing them
			// made a 3,530-cluster build 40 % slower on two cores.
			*aw = apspWorker{scratch: ov.NewAPSPScratch(), row: make([]uint32, k), block: make([]uint16, graph.APSPBlock*k)}
		}
		for b := first; b < last; b++ {
			srcs := rest[b*graph.APSPBlock : min((b+1)*graph.APSPBlock, len(rest))]
			var delta bsp.Stats
			for _, c := range srcs {
				if ctx.Err() != nil {
					return // the build is about to be discarded
				}
				relaxations, buckets := aw.scratch.Row(c, aw.row)
				storeRow(apsp, aw.row, c, set)
				delta.Relaxations += relaxations
				delta.Buckets += buckets
			}
			delta.Rounds = aw.scratch.HopRows(srcs, aw.block[:len(srcs)*k])
			for i, c := range srcs {
				storeRow(hops, aw.block[i*k:(i+1)*k], c, set)
			}
			report(aw, delta)
		}
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// x in set has no neighbour in set, so for t ≠ x in set every cell
	// (u, t) of a neighbour u is a searched one: d(x, t) is the least
	// w(x, u) + d(u, t), and the hop count one more than the least h(u, t).
	// The sums run in 64 bits, so an unreachable cell (all ones) stays
	// above every finite sum instead of wrapping below it.
	pool.Claim(mergeBlocks, 1, func(w, first, last int) {
		aw := &ws[w]
		for b := first; b < last; b++ {
			var delta bsp.Stats
			for i := b * graph.APSPBlock; i < min((b+1)*graph.APSPBlock, len(set)); i++ {
				if ctx.Err() != nil {
					return
				}
				x := set[i]
				nbrs, wts := wq.Neighbors(x)
				rowA, rowH := apsp[triangle(int(x)):], hops[triangle(int(x)):]
				for _, t := range set[:i] {
					dist, hop := uint64(graph.InfDist32), graph.InfHops
					for j, u := range nbrs {
						at := cell(u, t)
						dist = min(dist, uint64(wts[j])+uint64(apsp[at]))
						hop = min(hop, hops[at])
					}
					if hop != graph.InfHops {
						hop++
					}
					rowA[t], rowH[t] = uint32(dist), hop
				}
				delta.Relaxations += int64(len(nbrs) * i)
			}
			report(aw, delta)
		}
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var stats bsp.Stats
	for _, aw := range ws {
		stats.Add(aw.stats)
	}
	return newOracle(cl, k, apsp, hops, stats), nil
}

// storeRow files the row of source c ∉ set into a triangle: its prefix
// (c, 0 … c−1) is triangle row c, and its cells at the t > c in set (sorted)
// go to (t, c), in rows no search fills.
func storeRow[T uint32 | uint16](table, row []T, c graph.NodeID, set []graph.NodeID) {
	copy(table[triangle(int(c)):], row[:c])
	i, _ := slices.BinarySearch(set, c)
	for _, t := range set[i:] {
		table[triangle(int(t))+int(c)] = row[t]
	}
}

// OracleFromParts reassembles an oracle from its persisted parts: the
// decomposition plus the two quotient APSP tables as strict lower triangles
// of k = cl.NumClusters() rows, k(k−1)/2 cells each (weighted distances and
// hop counts — what Tables returns and the snapshot codec writes). It
// validates that the table dimensions are mutually consistent so a corrupted
// snapshot cannot produce an oracle that panics on query; a square table is
// refused like any other length.
func OracleFromParts(cl *Clustering, apsp []uint32, hops []uint16) (*Oracle, error) {
	if cl == nil || cl.G == nil {
		return nil, errors.New("core: OracleFromParts: nil clustering")
	}
	n, k := cl.G.NumNodes(), cl.NumClusters()
	if len(cl.Owner) != n || len(cl.Dist) != n {
		return nil, fmt.Errorf("core: OracleFromParts: owner/dist length %d/%d, want %d",
			len(cl.Owner), len(cl.Dist), n)
	}
	if len(apsp) != triangle(k) || len(hops) != triangle(k) {
		return nil, fmt.Errorf("core: OracleFromParts: %d apsp / %d hop entries for %d clusters (want %d)",
			len(apsp), len(hops), k, triangle(k))
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

// Tables returns the two quotient tables as stored: strict lower triangles
// of k = NumClusters() rows, k(k−1)/2 cells each, row d holding the cells
// (d, 0 … d−1) — so the pair c < d, in either order, is at index
// d(d−1)/2 + c — with graph.InfDist32 / graph.InfHops when the pair is
// unreachable. They alias internal storage and must not be modified; the
// snapshot codec writes them out with no copy.
func (o *Oracle) Tables() (apsp []uint32, hops []uint16) { return o.apsp, o.hops }

// APSPFlat returns the weighted quotient all-pairs table as a square
// row-major k×k copy widened to int64: entry (c, d) at c*k+d, zero on the
// diagonal, graph.InfDist when unreachable. It is an O(k²) copy for
// diagnostics and tests — call it once, outside any loop — and is on no
// build, serving or snapshot path.
func (o *Oracle) APSPFlat() []int64 { return square(o.apsp, o.k) }

// HopsFlat returns the hop table as a widened square copy; see APSPFlat.
func (o *Oracle) HopsFlat() []int64 { return square(o.hops, o.k) }

// square unfolds a triangle of k rows into a k×k int64 table; the all-ones
// cell of either width is the unreachable mark and becomes graph.InfDist.
func square[T uint32 | uint16](cells []T, k int) []int64 {
	out := make([]int64, k*k)
	for d := 1; d < k; d++ {
		for c, v := range cells[triangle(d):triangle(d+1)] {
			w := int64(v)
			if v == ^T(0) {
				w = graph.InfDist
			}
			out[c*k+d], out[d*k+c] = w, w
		}
	}
	return out
}

// triangle is the number of cells in a strict lower triangle of n rows, and
// so the offset of row n.
func triangle(n int) int { return n * (n - 1) / 2 }

// cell is the triangle index hi(hi−1)/2 + lo of the cluster pair (c, d),
// c ≠ d, in either order, hi and lo being the larger and the smaller id. It
// needs no k, and its unsigned arithmetic halves without a sign fix-up. The
// pair is ordered by a sign mask rather than by min/max, which compile to a
// branch here: random pairs mispredict it half the time, and that doubled
// the cost of a lookup into a cache-resident triangle.
func cell(c, d graph.NodeID) uint {
	t := uint(c^d) & uint((c-d)>>31) // c^d when c < d, else 0; ids are non-negative, so c−d cannot overflow
	hi, lo := uint(c)^t, uint(d)^t
	return hi*(hi-1)/2 + lo
}

// NumClusters returns the size of the quotient graph (rows of the APSP
// table).
func (o *Oracle) NumClusters() int { return o.k }

// APSPStats returns the cost of the quotient APSP build, in counters that
// depend on the quotient alone — not on the worker count or any schedule:
// Relaxations = Messages = every offer the build weighs: the core arcs
// scanned by the rows' Dial searches (the core degrees of the core nodes
// each computed source reaches, summed over those sources), plus one
// min-term per arc a row's lift follows (the kept arcs of every overlay node
// reachable from the source along kept arcs) and per arc its sweep reads
// (every kept arc, once a row), plus one min-term per neighbour and merged
// cell (deg(x) times the members of I below x, summed over I's members x);
// Buckets = non-empty unit-width buckets the core searches settle (distinct
// finite distances from the source to core nodes, summed over computed
// sources); Rounds = bit-parallel BFS sweeps (the largest hop eccentricity
// in each block of graph.APSPBlock computed sources, summed over blocks).
// Buckets and Rounds count the search pass only. Zero for oracles
// reassembled from snapshots.
func (o *Oracle) APSPStats() bsp.Stats { return o.apspStats }

// LowerQuery returns a certified lower bound on the distance between u and
// v: the hop distance between their clusters in the quotient graph (every
// G-path from u to v crosses at least that many inter-cluster edges).
// Same-cluster pairs get 0. The bound is stored in the APSP table's
// companion hop triangle.
func (o *Oracle) LowerQuery(u, v graph.NodeID) int64 {
	if u == v {
		return 0
	}
	cu, cv := o.owner[u], o.owner[v]
	if cu == cv {
		return 0
	}
	if h := o.hops[cell(cu, cv)]; h != graph.InfHops {
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
	mid := o.apsp[cell(cu, cv)]
	if mid == graph.InfDist32 {
		return graph.InfDist
	}
	return int64(o.dist[u]) + int64(mid) + int64(o.dist[v])
}

// QueryBatchInto answers pairs[i] = (u, v) into out[i], exactly as Query
// would pair by pair (graph.InfDist for cross-component pairs). It is the
// oracle's batch hot path: a single pass over the triangle with zero
// allocation, so callers can pool and reuse both slices across requests.
// Every id must already be validated in [0, n); out must have len(pairs).
// Zero allocations, pinned by TestQueryBatchZeroAllocs.
func (o *Oracle) QueryBatchInto(pairs [][2]graph.NodeID, out []int64) {
	_ = out[:len(pairs)] // one bounds check, not one per pair
	owner, dist, apsp := o.owner, o.dist, o.apsp
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
		mid := apsp[cell(cu, cv)]
		if mid == graph.InfDist32 {
			out[i] = graph.InfDist
			continue
		}
		out[i] = int64(dist[u]) + int64(mid) + int64(dist[v])
	}
}
