package core

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"repro/internal/bsp"
	"repro/internal/graph"
	"repro/internal/quotient"
)

// Weighted-graph extension. The paper's Section 7 names the extension to
// weighted graphs as its main open problem and sketches the shape of the
// answer: a decomposition that, besides the number of clusters and their
// weighted radius, also controls their *hop* radius, because the hop radius
// is what governs the parallel depth of the computation. WeightedCluster
// realizes that sketch with the same batch schedule as CLUSTER(τ) — a new
// batch of centers activates every time the covered set halves the
// remainder — but grows all active clusters concurrently on the
// delta-stepping bsp.WeightedEngine: cluster growth is a multi-source
// shortest-path computation, advanced one distance bucket at a time, with
// contended nodes resolved by an atomic min-reduction on (weighted
// distance, cluster id). A node counts as covered once the bucket holding
// its final distance settles, which is when the batch schedule observes it.
// After the last batch the growth drains to its fixpoint, so every covered
// node ends at its exact weighted distance to the nearest activated center
// (ties to the smaller cluster id) — the weighted Voronoi partition of the
// selected centers — and the recorded distance is the length of an actual
// center-to-node path, hence certified. The hop distances are recovered
// from the shortest-path forest afterwards; every cluster's hop radius is
// bounded by the number of relaxation phases (GrowthSteps), preserving the
// parallel-depth control the Section 7 sketch asks for.

// WeightedClustering is a partition of a weighted graph into disjoint,
// internally connected clusters.
type WeightedClustering struct {
	// G is the decomposed graph.
	G *graph.Weighted
	// Owner[u] is the cluster index of u.
	Owner []graph.NodeID
	// HopDist[u] is the hop length of u's growth path: the fewest edges on
	// a same-cluster path from the center realizing WDist[u].
	HopDist []int32
	// WDist[u] is the weighted length of the growth path from the center.
	WDist []int64
	// Centers[c] is the center node of cluster c.
	Centers []graph.NodeID
	// WRadii[c] is the maximum WDist within cluster c.
	WRadii []int64
	// HopRadii[c] is the maximum HopDist within cluster c.
	HopRadii []int32
	// GrowthSteps is the number of relaxation phases (the parallel depth).
	GrowthSteps int
	// Stats aggregates substrate costs (relaxations, buckets, phases).
	Stats bsp.Stats
}

// NumClusters returns the number of clusters.
func (c *WeightedClustering) NumClusters() int { return len(c.Centers) }

// MaxWeightedRadius returns the maximum weighted radius.
func (c *WeightedClustering) MaxWeightedRadius() int64 { return maxOf(c.WRadii) }

// MaxHopRadius returns the maximum hop radius.
func (c *WeightedClustering) MaxHopRadius() int32 { return maxOf(c.HopRadii) }

// Validate checks the partition invariants: full coverage, centers at
// distance zero, and every non-center node claimed through an incident
// edge from a same-cluster node one hop closer with consistent weighted
// distance.
func (c *WeightedClustering) Validate() error {
	n := c.G.NumNodes()
	if len(c.Owner) != n || len(c.HopDist) != n || len(c.WDist) != n {
		return errors.New("core: weighted clustering arrays mismatched")
	}
	k := c.NumClusters()
	for cl, center := range c.Centers {
		if c.Owner[center] != graph.NodeID(cl) || c.WDist[center] != 0 || c.HopDist[center] != 0 {
			return fmt.Errorf("core: center %d of cluster %d inconsistent", center, cl)
		}
	}
	for u := 0; u < n; u++ {
		o := c.Owner[u]
		if o < 0 || int(o) >= k {
			return fmt.Errorf("core: node %d uncovered", u)
		}
		if c.HopDist[u] == 0 {
			if c.Centers[o] != graph.NodeID(u) {
				return fmt.Errorf("core: node %d has hop 0 but is not a center", u)
			}
			continue
		}
		nbrs, ws := c.G.Neighbors(graph.NodeID(u))
		ok := false
		for i, v := range nbrs {
			if c.Owner[v] == o && c.HopDist[v] == c.HopDist[u]-1 &&
				c.WDist[v]+int64(ws[i]) == c.WDist[u] {
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("core: node %d has no consistent predecessor", u)
		}
	}
	return nil
}

// WeightedCluster decomposes the weighted graph wg into disjoint clusters
// with the CLUSTER(τ) batch schedule, growing all active clusters
// concurrently via parallel delta-stepping; contended nodes resolve to the
// minimum (weighted distance, cluster id) claim. The result is
// deterministic for a given seed: identical centers, owners, and radii at
// every worker count. The growth checks ctx at the existing bucket barriers
// and returns ctx.Err() within one relaxation phase of a cancel; the checks
// never influence the bucket schedule of an uncancelled run.
func WeightedCluster(ctx context.Context, wg *graph.Weighted, tau int, opt Options) (*WeightedClustering, error) {
	if tau < 1 {
		return nil, errors.New("core: WeightedCluster requires tau >= 1")
	}
	n := wg.NumNodes()
	if n == 0 {
		return nil, errors.New("core: WeightedCluster on empty graph")
	}
	e := bsp.NewWeightedEngine(wg, opt.Workers, 0)
	defer e.Close()
	e.SetContext(ctx)
	e.SetObserver(opt.Observer)
	e.GrowInit()
	gr := &weightedGrowth{e: e, n: n}
	if _, err := opt.Schedule(gr, n, tau, 0x3e19_77ed); err != nil {
		return nil, err
	}
	// Drain: let the active clusters grow to their Voronoi fixpoint, so
	// every reachable node's distance is exact and every claim chain is
	// consistent. Whatever remains (other components) becomes singletons.
	for {
		_, live, err := gr.Step()
		if err != nil {
			return nil, err
		}
		if !live {
			break
		}
	}
	for u := graph.NodeID(0); int(u) < n; u++ {
		if !gr.Covered(u) {
			gr.AddCenter(u)
		}
	}
	centers := gr.centers

	owner := make([]graph.NodeID, n)
	wdist := make([]int64, n)
	e.Extract(wdist, owner)
	hop, err := hopDistances(wg, owner, wdist, centers)
	if err != nil {
		return nil, err
	}

	stats := e.Stats()
	wc := &WeightedClustering{
		G:           wg,
		Owner:       owner,
		HopDist:     hop,
		WDist:       wdist,
		Centers:     centers,
		WRadii:      make([]int64, len(centers)),
		HopRadii:    make([]int32, len(centers)),
		GrowthSteps: stats.Rounds,
		Stats:       stats,
	}
	for u := 0; u < n; u++ {
		o := owner[u]
		wc.WRadii[o] = max(wc.WRadii[o], wdist[u])
		wc.HopRadii[o] = max(wc.HopRadii[o], hop[u])
	}
	return wc, nil
}

// weightedGrowth is the delta-stepping engine's multi-source growth as the
// batch schedule sees it. Coverage is settled coverage — tentative claims
// sitting in unprocessed buckets do not count, and such nodes remain
// eligible as centers (a fresh center's distance-zero claim overrides any
// tentative one) — and one Step settles one bucket.
type weightedGrowth struct {
	e       *bsp.WeightedEngine
	n       int
	centers []graph.NodeID
}

func (gr *weightedGrowth) Uncovered() int              { return gr.n - gr.e.SettledCount() }
func (gr *weightedGrowth) Covered(u graph.NodeID) bool { return gr.e.Settled(u) }
func (gr *weightedGrowth) Idle() bool                  { return !gr.e.HasPending() }

func (gr *weightedGrowth) AddCenter(u graph.NodeID) {
	gr.e.AddSource(u, graph.NodeID(len(gr.centers)))
	gr.centers = append(gr.centers, u)
}

func (gr *weightedGrowth) SelectUncovered(dst []graph.NodeID, pick func(graph.NodeID) bool) ([]graph.NodeID, error) {
	for u := graph.NodeID(0); int(u) < gr.n; u++ {
		if !gr.e.Settled(u) && pick(u) {
			dst = append(dst, u)
		}
	}
	return dst, nil
}

func (gr *weightedGrowth) Step() (claimed int, live bool, err error) {
	before := gr.e.SettledCount()
	live, err = gr.e.ProcessBucket()
	return gr.e.SettledCount() - before, live, err
}

// hopDistances recovers per-node hop distances along the shortest-path
// forest of a settled growth: scanning nodes by increasing weighted
// distance, every non-center node takes 1 + the minimum hop among its
// consistent predecessors (same owner, WDist[pred] + w == WDist[node]).
// Such a predecessor always exists — every winning claim is a relaxation
// of a predecessor's final distance — so a miss is an internal error.
func hopDistances(wg *graph.Weighted, owner []graph.NodeID, wdist []int64, centers []graph.NodeID) ([]int32, error) {
	n := wg.NumNodes()
	hop := make([]int32, n)
	order := make([]graph.NodeID, n)
	for i := range order {
		order[i] = graph.NodeID(i)
	}
	sort.Slice(order, func(i, j int) bool {
		if wdist[order[i]] != wdist[order[j]] {
			return wdist[order[i]] < wdist[order[j]]
		}
		return order[i] < order[j]
	})
	for _, u := range order {
		if centers[owner[u]] == u {
			hop[u] = 0
			continue
		}
		nbrs, ws := wg.Neighbors(u)
		best := int32(-1)
		for i, v := range nbrs {
			if owner[v] == owner[u] && wdist[v]+int64(ws[i]) == wdist[u] {
				if h := hop[v] + 1; best < 0 || h < best {
					best = h
				}
			}
		}
		if best < 0 {
			return nil, fmt.Errorf("core: node %d has no growth predecessor (internal error)", u)
		}
		hop[u] = best
	}
	return hop, nil
}

// WeightedDiameterResult carries the weighted diameter bounds.
type WeightedDiameterResult struct {
	Clustering *WeightedClustering
	Quotient   *graph.Weighted
	// Upper is 2·maxWRadius + ∆'C, a certified upper bound on the weighted
	// diameter.
	Upper int64
	// LowerHint is the weighted quotient diameter ∆'C, which is itself an
	// upper bound on the center-to-center diameter but not a certified
	// lower bound on ∆ (unlike the unweighted ∆C); it is reported for
	// inspection.
	LowerHint int64
	Stats     bsp.Stats
}

// ApproxDiameterWeighted estimates the weighted diameter of a connected
// weighted graph through a WeightedCluster decomposition and its quotient,
// extending the Section 4 pipeline to weighted graphs. Both stages — the
// multi-source growth and the quotient's iFUB Dijkstra replacement — run
// on the parallel delta-stepping engine. The contraction between them is
// one sequential pass into one quotient.Accumulator: its crossings carry the
// input's own edge weights, which quotient.Contract does not read, and the
// function is on no benchmark path that would pay for a second contraction.
// Cancelling ctx aborts the growth or the quotient's iFUB and returns
// ctx.Err().
func ApproxDiameterWeighted(ctx context.Context, wg *graph.Weighted, tau int, opt Options) (*WeightedDiameterResult, error) {
	if tau <= 0 {
		tau = DefaultDiameterTau(wg.NumNodes())
	}
	wc, err := WeightedCluster(ctx, wg, tau, opt)
	if err != nil {
		return nil, err
	}
	// Weighted quotient: min over crossing edges of WDist[a]+w+WDist[b].
	acc := quotient.NewAccumulator(wc.NumClusters())
	for u := graph.NodeID(0); int(u) < wg.NumNodes(); u++ {
		nbrs, ws := wg.Neighbors(u)
		for i, v := range nbrs {
			if u < v {
				acc.Offer(wc.Owner[u], wc.Owner[v], wc.WDist[u]+int64(ws[i])+wc.WDist[v])
			}
		}
	}
	q, err := acc.Weighted()
	if err != nil {
		return nil, err
	}
	diamQ, _, err := q.ExactDiameterWeightedContext(ctx, 0)
	if err != nil {
		return nil, err
	}
	return &WeightedDiameterResult{
		Clustering: wc,
		Quotient:   q,
		Upper:      2*wc.MaxWeightedRadius() + diamQ,
		LowerHint:  diamQ,
		Stats:      wc.Stats,
	}, nil
}
