package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"

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
// cluster radii and heaviest quotient arc maxW can be contracted and stored
// in uint32 cells: quotientDistBound bounds every simple path of the
// quotient, so every overlay arc fits an int32 (graph.NewOverlay's
// precondition) and every distance a uint32 cell below the all-ones mark.
// The heaviest arc's term is a margin beyond what either needs.
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
// row is computed sequentially and cache-resident.
//
// Both tables come out of one row kernel over two graph.Overlays, one of
// the weighted quotient and one of the same quotient with unit weights,
// whose distances are the hop counts (see graph/apsp.go). Each overlay
// eliminates independent sets level by level with shortcuts, until a level
// would not lower the edge count; that depends on the quotient's structure
// alone, so both overlays take the same levels. I is the independent set
// level 0 eliminates (taken greedily by degree, then id:
// graph.Weighted.IndependentSet, about half the clusters of a road-like
// quotient), and R is the rest.
//
// The build is two passes over the opt.Workers workers of one bsp.Pool,
// each worker with its own scratch and Stats, summed after the barrier:
//   - tables: workers claim blocks of rowBlock items: the rows of both
//     overlays' core tables, each one bsp.WeightedEngine search on its
//     core, then I's triangle rows, set to all ones (unreachable).
//   - rows: workers claim blocks of rowBlock sources of R. A source u gets
//     its weighted and its hop row from the kernel (a lift to the core, the
//     least of seed plus table row in every core cell, a sweep back down;
//     over an overlay that took no level, one search of the whole quotient),
//     copies the prefixes (u, 0 … u−1) into the triangles, and pushes its
//     rows into every neighbour x ∈ I: for t < x, (x, t) becomes the least
//     of itself and w(x,u) + d(u,t), and its hop count the least of itself
//     and h(u,t) + 1, under x's own mutex. No neighbour of x is in I, so
//     every neighbour pushes, and d(x, t) is the least over them.
//
// min is commutative, so the tables are identical to a Dijkstra+BFS build
// at every worker count and in every schedule. The build allocates the
// 3·k(k−1) bytes it returns, O(quotient arcs) for the overlays, the two
// core tables — 6·C² bytes for a core of C nodes, 2 MB on the `fine`
// benchmark workload's 572, none for an overlay that took no level — and
// O(k) scratch per worker (a decomposition whose distances could overflow a
// cell is refused first — narrowCellsFit).
// Cancelling ctx stops every worker before its next item or source and
// returns ctx.Err(); opt.Observer receives one delta per completed block of
// either pass, and the deltas sum to APSPStats.
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
	wov, hov := overlays(wq)
	dist, hop := graph.NewCoreTable[uint32](wov), graph.NewCoreTable[uint16](hov)
	set, rest := wov.Split()
	cw, ch := dist.Rows(), hop.Rows()
	items := cw + ch + len(set)
	blocks := func(n int) int { return (n + rowBlock - 1) / rowBlock }
	workers := max(1, min(bsp.Workers(opt.Workers), max(blocks(items), blocks(len(rest)))))
	pool := bsp.NewPool(workers)
	defer pool.Close()
	// Each worker runs the kernels with its own scratch and counts into its
	// own Stats. A table row, a triangle row of R and an I row's reset are
	// each written by one worker; an I row takes its neighbours' pushes
	// under its own mutex, and pushes take minima, so their order never
	// shows.
	type apspWorker struct {
		ws, hs *graph.APSPScratch
		row    []uint32
		hrow   []uint16
		stats  bsp.Stats
	}
	ws := make([]apspWorker, workers)
	apsp := make([]uint32, triangle(k))
	hops := make([]uint16, triangle(k))
	inSet, locks := make([]bool, k), make([]sync.Mutex, k)
	for _, x := range set {
		inSet[x] = true
	}
	scratch := func(w int) *apspWorker {
		aw := &ws[w]
		if aw.ws == nil {
			// Allocated by the worker that uses it: scratch allocated back
			// to back by one goroutine shares cache lines (a search engine's
			// heap state is a few words), and two workers writing them made
			// a 3,530-cluster build 40 % slower on two cores.
			*aw = apspWorker{ws: wov.NewAPSPScratch(), hs: hov.NewAPSPScratch(), row: make([]uint32, k), hrow: make([]uint16, k)}
		}
		return aw
	}
	report := func(aw *apspWorker, delta bsp.Stats) {
		delta.Messages = delta.Relaxations
		aw.stats.Add(delta)
		if opt.Observer != nil {
			opt.Observer(delta) // concurrent across workers; the Observer contract requires thread safety
		}
	}
	pool.Claim(blocks(items), 1, func(w, first, last int) {
		aw := scratch(w)
		for b := first; b < last; b++ {
			var delta bsp.Stats
			for i := b * rowBlock; i < min((b+1)*rowBlock, items); i++ {
				if ctx.Err() != nil {
					return // the build is about to be discarded
				}
				switch {
				case i < cw:
					delta.Add(dist.Fill(aw.ws, i))
				case i < cw+ch:
					delta.Add(hop.Fill(aw.hs, i-cw))
				default:
					x := int(set[i-cw-ch])
					fillOnes(apsp[triangle(x):triangle(x+1)])
					fillOnes(hops[triangle(x):triangle(x+1)])
				}
			}
			report(aw, delta)
		}
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	pool.Claim(blocks(len(rest)), 1, func(w, first, last int) {
		aw := scratch(w)
		row, hrow := aw.row, aw.hrow
		for b := first; b < last; b++ {
			var delta bsp.Stats
			for _, u := range rest[b*rowBlock : min((b+1)*rowBlock, len(rest))] {
				if ctx.Err() != nil {
					return
				}
				delta.Add(dist.Row(aw.ws, u, row))
				delta.Add(hop.Row(aw.hs, u, hrow))
				copy(apsp[triangle(int(u)):], row[:u])
				copy(hops[triangle(int(u)):], hrow[:u])
				nbrs, wts := wq.Neighbors(u)
				for j, x := range nbrs {
					if !inSet[x] {
						continue
					}
					// Sums run in 64 and 32 bits, so an unreachable cell (all
					// ones) stays above every finite one instead of wrapping.
					lo, hi, wxu := triangle(int(x)), triangle(int(x)+1), uint64(wts[j])
					rowA, rowH := apsp[lo:hi], hops[lo:hi]
					locks[x].Lock()
					for t, d := range row[:len(rowA)] {
						rowA[t] = uint32(min(uint64(rowA[t]), wxu+uint64(d)))
					}
					for t, h := range hrow[:len(rowH)] {
						rowH[t] = uint16(min(uint32(rowH[t]), uint32(h)+1))
					}
					locks[x].Unlock()
					delta.Relaxations += 2 * int64(x)
				}
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

// rowBlock is how many items or sources one claim of the build's passes
// takes, and so how much work one Observer delta reports.
const rowBlock = 64

// overlays returns the build's two overlays of the weighted quotient wq:
// of wq itself, and of wq with unit weights, whose distances are the hop
// counts.
func overlays(wq *graph.Weighted) (dist, hop *graph.Overlay) {
	return graph.NewOverlay(wq), graph.NewOverlay(wq.Unit())
}

// fillOnes sets every cell of a triangle row to the unreachable mark.
func fillOnes[T uint32 | uint16](cells []T) {
	for i := range cells {
		cells[i] = ^T(0)
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
// depend on the quotient alone — not on the worker count or any schedule —
// summed over its two overlays, the weighted and the unit-weight one:
// Rounds = the core searches, one per core node of each (which fill the
// core tables), or, for an overlay that took no level, one per source of R
// (each a whole row); Buckets = the distinct finite distances those
// searches settle; Relaxations = Messages = the core arcs they scan (the
// core degrees of the core nodes each reaches), plus every min-term the
// rows weigh: per source of R over a contracted overlay, one per arc its
// lift follows (the kept arcs of every overlay node reachable from it along
// kept arcs), C per lifted seed (a core of C nodes) and one per kept arc for
// the sweep, and then deg(x)·x per member x of I for the pushes into its
// row. Zero for oracles reassembled from snapshots.
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
