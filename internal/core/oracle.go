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
type Oracle struct {
	clustering *Clustering
	k          int            // quotient size; the stride of apsp/hops
	apsp       []int64        // weighted quotient APSP, row-major k×k; InfDist when unreachable
	hops       []int64        // unweighted quotient APSP (certified lower bounds), row-major k×k
	owner      []graph.NodeID // flat cluster-of lookup, aliases clustering.Owner
	dist       []int32        // flat distance-to-center lookup, aliases clustering.Dist
	apspStats  bsp.Stats      // aggregate cost of the quotient APSP build
}

// newOracle wires the flat lookup aliases; every constructor funnels
// through it so the hot path never reaches back through the clustering.
func newOracle(cl *Clustering, k int, apsp, hops []int64, stats bsp.Stats) *Oracle {
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

// BuildOracle constructs a distance oracle over g. If tau <= 0,
// DefaultOracleTau is used. useCluster2 selects the theory-faithful
// decomposition (slower; plain CLUSTER matches the experimental pipeline).
// Cancelling ctx aborts the build at the next superstep (or, in the APSP
// phase, bucket) barrier and returns ctx.Err().
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
// decomposition. The k per-cluster searches of the quotient APSP are
// independent, so they fan out across opt.Workers goroutines, each running
// its own delta-stepping engine for the weighted rows — source-level
// parallelism on top of (and compounding with) the parallel relaxation
// inside each search. The row contents are identical to the sequential
// Dijkstra+BFS build for every worker count. Cancelling ctx stops every
// worker at its next source (or mid-search bucket) boundary and returns
// ctx.Err().
func OracleFromClustering(ctx context.Context, cl *Clustering, opt Options) (*Oracle, error) {
	k := cl.NumClusters()
	if k > maxOracleClusters {
		return nil, fmt.Errorf("core: %d clusters exceed the oracle cap %d; lower tau", k, maxOracleClusters)
	}
	q, wq, err := quotient.BuildWeighted(cl.G, cl.Owner, cl.Dist, k)
	if err != nil {
		return nil, err
	}
	workers := bsp.Workers(opt.Workers)
	if workers > k {
		workers = k
	}
	// The tables are row-major flat arrays; each worker owns the disjoint
	// row apsp[c*k:(c+1)*k] of the source it claimed, so the writes need no
	// synchronization and the engines fill the final storage directly.
	apsp := make([]int64, k*k)
	hops := make([]int64, k*k)
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
			// One sequential engine per goroutine: the parallelism budget
			// is already spent on the source fan-out.
			e := bsp.NewWeightedEngine(wq, 1, opt.Delta)
			e.SetContext(ctx)
			e.SetObserver(opt.Observer) // concurrent across workers; Observer contract requires thread safety
			defer e.Close()
			for ctx.Err() == nil {
				c := int(next.Add(1)) - 1
				if c >= k {
					break
				}
				e.SSSP(graph.NodeID(c), apsp[c*k:(c+1)*k])
				if e.Err() != nil {
					// Cancelled mid-search: the row is partial, and the
					// whole build is about to be discarded.
					break
				}
				hop := q.BFS(graph.NodeID(c))
				hrow := hops[c*k : (c+1)*k]
				for i, h := range hop {
					if h < 0 {
						hrow[i] = graph.InfDist
					} else {
						hrow[i] = int64(h)
					}
				}
			}
			statsMu.Lock()
			stats.Add(e.Stats())
			statsMu.Unlock()
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
// stride k = cl.NumClusters() (weighted distances and hop counts — the
// same layout APSPFlat/HopsFlat expose and the snapshot codec writes). It
// validates that the table dimensions are mutually consistent so a
// corrupted snapshot cannot produce an oracle that panics on query.
func OracleFromParts(cl *Clustering, apsp, hops []int64) (*Oracle, error) {
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

// APSPFlat returns the weighted quotient all-pairs table in its native
// row-major flat layout: entry (c, d) is at index c*NumClusters()+d. It
// aliases internal storage and must not be modified; it exists for the
// snapshot codec and zero-copy batch consumers.
func (o *Oracle) APSPFlat() []int64 { return o.apsp }

// HopsFlat returns the hop table in its native row-major flat layout (see
// APSPFlat). It aliases internal storage and must not be modified.
func (o *Oracle) HopsFlat() []int64 { return o.hops }

// NumClusters returns the size of the quotient graph (rows of the APSP
// table).
func (o *Oracle) NumClusters() int { return o.k }

// APSPStats returns the aggregate substrate cost of the quotient APSP
// build (delta-stepping relaxations, buckets, phases summed over the k
// per-cluster searches). Zero for oracles reassembled from snapshots.
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
	h := o.hops[int(cu)*o.k+int(cv)]
	if h == graph.InfDist {
		return graph.InfDist
	}
	return h
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
	if mid == graph.InfDist {
		return graph.InfDist
	}
	return int64(o.dist[u]) + mid + int64(o.dist[v])
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
		if mid == graph.InfDist {
			out[i] = graph.InfDist
			continue
		}
		out[i] = int64(dist[u]) + mid + int64(dist[v])
	}
}
