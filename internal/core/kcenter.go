package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"

	"repro/internal/bsp"
	"repro/internal/graph"
	"repro/internal/quotient"
)

// KCenterResult is an approximate solution to the metric k-center problem
// on the graph metric (Section 3.1).
type KCenterResult struct {
	// Centers is the selected center set, |Centers| <= k.
	Centers []graph.NodeID
	// Radius is the exact maximum distance of any node to the nearest
	// center (evaluated by EvalCenters' multi-source sweep, not an
	// estimate).
	Radius int32
	// Clustering is the underlying decomposition.
	Clustering *Clustering
	// Merged reports whether the decomposition produced more than k
	// clusters and the spanning-tree merging step of Theorem 2 ran.
	Merged bool
}

// KCenter computes an approximate k-center solution for g following
// Section 3.1: run CLUSTER(τ) with τ = Θ(k/log²n) and, if more than k
// clusters come back, merge them along a spanning forest of the quotient
// graph into at most k connected groups (the technique in the proof of
// Theorem 2, which also covers disconnected graphs per Section 3.2).
// The approximation factor is O(log³n) with high probability; empirically
// the radius is within a small constant of the Gonzalez 2-approximation.
//
// k must be at least the number of connected components of g. Cancelling
// ctx aborts the decomposition at the next superstep barrier and the exact
// radius evaluation (EvalCenters' level-synchronous sweep) at its next
// level, and returns ctx.Err(); the merge, a few passes over the quotient,
// runs to completion once started.
func KCenter(ctx context.Context, g *graph.Graph, k int, opt Options) (*KCenterResult, error) {
	n := g.NumNodes()
	if k < 1 {
		return nil, errors.New("core: KCenter requires k >= 1")
	}
	if n == 0 {
		return nil, errors.New("core: KCenter on empty graph")
	}
	logn := log2n(n)
	tau := int(float64(k) / (logn * logn))
	if tau < 1 {
		tau = 1
	}
	cl, err := ClusterContext(ctx, g, tau, opt)
	if err != nil {
		return nil, err
	}
	res := &KCenterResult{Clustering: cl}
	if cl.NumClusters() <= k {
		res.Centers = append([]graph.NodeID(nil), cl.Centers...)
	} else {
		res.Merged = true
		res.Centers, err = mergeClustersToK(cl, k, opt.Workers)
		if err != nil {
			return nil, err
		}
	}
	radius, err := evalCenters(ctx, g, res.Centers)
	if err != nil {
		return nil, err
	}
	res.Radius = radius
	return res, nil
}

// EvalCenters returns the exact k-center objective value of the given
// center set: the maximum distance of any node to the nearest center. It
// fails if a center is not a node of g or some node is unreachable from
// every center, naming the smallest such node.
//
// It is one sequential, level-synchronous multi-source sweep that keeps
// no distances, only which nodes it has reached: each level runs top-down
// or bottom-up by the traversal engine's own cost rule (bsp.PullCheaper),
// and the radius is the number of levels that reach a new node. Its
// memory is a visited bitmap and the frontier: a node list after a
// top-down level, a bitmap (and one for the next) after a bottom-up one.
func EvalCenters(g *graph.Graph, centers []graph.NodeID) (int32, error) {
	return evalCenters(nil, g, centers)
}

// evalCenters is EvalCenters checking ctx, when non-nil, between levels.
func evalCenters(ctx context.Context, g *graph.Graph, centers []graph.NodeID) (int32, error) {
	n := g.NumNodes()
	if len(centers) == 0 {
		return 0, errors.New("core: empty center set")
	}
	for _, c := range centers {
		if c < 0 || int(c) >= n {
			return 0, fmt.Errorf("core: center %d out of range [0, %d)", c, n)
		}
	}
	xadj, adj := g.CSR()
	visited := bsp.NewBitmap(n)
	// The frontier is in list after a top-down level and in cur after a
	// bottom-up one, as dense says; spare and next receive a level's claims.
	var list, spare []graph.NodeID
	var cur, next *bsp.Bitmap
	dense := false
	var mf int64 // arcs leaving the frontier
	for _, c := range centers {
		if !visited.Get(c) {
			visited.Set(c)
			list = append(list, c)
			mf += xadj[c+1] - xadj[c]
		}
	}
	nf, nu, mu := int64(len(list)), int64(n-len(list)), int64(len(adj))-mf
	var radius int32
	for nf > 0 && nu > 0 {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return 0, err
			}
		}
		var claimed, deg int64
		if bsp.PullCheaper(int64(n), nf, mf, nu, mu) {
			if cur == nil {
				cur, next = bsp.NewBitmap(n), bsp.NewBitmap(n)
			}
			if !dense {
				cur.FromSparse(list)
			}
			next.ClearAll()
			for wi := 0; wi<<6 < n; wi++ {
				base := graph.NodeID(wi << 6)
				for m := visited.Absent(wi); m != 0; m &= m - 1 {
					v := base + graph.NodeID(bits.TrailingZeros64(m))
					if int(v) >= n { // pad bits of the last word
						break
					}
					for _, u := range adj[xadj[v]:xadj[v+1]] {
						if cur.Get(u) {
							visited.Set(v)
							next.Set(v)
							claimed++
							deg += xadj[v+1] - xadj[v]
							break
						}
					}
				}
			}
			cur, next = next, cur
			dense = true
		} else {
			if dense {
				list = cur.ToSparse(reserve(list, nf))
			}
			spare = reserve(spare, min(nu, mf)) // a level claims at most that many
			for _, u := range list {
				for _, v := range adj[xadj[u]:xadj[u+1]] {
					if !visited.Get(v) {
						visited.Set(v)
						spare = append(spare, v)
						deg += xadj[v+1] - xadj[v]
					}
				}
			}
			list, spare = spare, list
			claimed = int64(len(list))
			dense = false
		}
		radius++ // a level that claims nothing leaves nu > 0: the error below
		nf, mf = claimed, deg
		nu -= claimed
		mu -= deg
	}
	if nu > 0 {
		for wi := 0; ; wi++ {
			if m := visited.Absent(wi); m != 0 {
				u := wi<<6 + bits.TrailingZeros64(m)
				return 0, fmt.Errorf("%w: node %d unreachable from all centers (k below the number of components?)", ErrInfeasible, u)
			}
		}
	}
	return radius, nil
}

// reserve returns buf emptied, with room for at least want nodes: if buf
// has less, a fresh slice of want or twice buf's capacity, whichever is
// more, so a list that grows level by level is reallocated O(log n) times
// and never by append's smaller steps.
func reserve(buf []graph.NodeID, want int64) []graph.NodeID {
	if int64(cap(buf)) < want {
		return make([]graph.NodeID, 0, max(want, 2*int64(cap(buf))))
	}
	return buf[:0]
}

// mergeClustersToK reduces a W > k clustering to at most k centers by
// partitioning a spanning forest of the quotient graph into at most k
// connected groups of clusters and keeping one center per group. The group
// size quota is found by doubling-then-binary search, since the number of
// groups is monotonically non-increasing in the quota.
func mergeClustersToK(cl *Clustering, k, workers int) ([]graph.NodeID, error) {
	w := cl.NumClusters()
	q, _, err := quotient.Contract(cl.G, cl.Owner, nil, w, workers)
	if err != nil {
		return nil, err
	}
	parent, order, roots := spanningForest(q)
	if roots > k {
		return nil, fmt.Errorf("%w: graph has %d components but k=%d", ErrInfeasible, roots, k)
	}
	lo, hi := 1, w // smallest quota with numParts <= k lies in [1, w]
	for lo < hi {
		mid := (lo + hi) / 2
		if len(partHeads(parent, order, mid)) <= k {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	heads := partHeads(parent, order, lo)
	centers := make([]graph.NodeID, 0, len(heads))
	for _, h := range heads {
		centers = append(centers, cl.Centers[h])
	}
	if len(centers) > k {
		return nil, fmt.Errorf("core: internal error, merged to %d > k=%d parts", len(centers), k)
	}
	return centers, nil
}

// spanningForest returns BFS parents over q (parent[root] = -1), the BFS
// visit order (parents precede children), and the number of roots.
func spanningForest(q *graph.Graph) (parent []graph.NodeID, order []graph.NodeID, roots int) {
	n := q.NumNodes()
	parent = make([]graph.NodeID, n)
	for i := range parent {
		parent[i] = -2 // unvisited
	}
	order = make([]graph.NodeID, 0, n)
	for s := 0; s < n; s++ {
		if parent[s] != -2 {
			continue
		}
		roots++
		parent[s] = -1
		head := len(order)
		order = append(order, graph.NodeID(s))
		for head < len(order) {
			u := order[head]
			head++
			for _, v := range q.Neighbors(u) {
				if parent[v] == -2 {
					parent[v] = u
					order = append(order, v)
				}
			}
		}
	}
	return parent, order, roots
}

// partHeads returns the part heads for the given quota, in increasing id:
// processing nodes children-first, a node whose accumulated subtree size
// reaches the quota is cut and becomes a head; roots are always heads.
func partHeads(parent []graph.NodeID, order []graph.NodeID, quota int) []graph.NodeID {
	n := len(parent)
	size := make([]int32, n)
	head := make([]bool, n)
	for i := len(order) - 1; i >= 0; i-- {
		u := order[i]
		size[u]++ // count u itself
		if parent[u] == -1 {
			head[u] = true
			continue
		}
		if int(size[u]) >= quota {
			head[u] = true
		} else {
			size[parent[u]] += size[u]
		}
	}
	out := make([]graph.NodeID, 0, 16)
	for u, h := range head {
		if h {
			out = append(out, graph.NodeID(u))
		}
	}
	return out
}

// TauForTargetClusters searches for a τ that makes ClusterContext return
// roughly target clusters on g (the number of clusters grows monotonically
// with τ in expectation, but is random; the search accepts within
// tolerance·target or returns the best found). It is the knob the
// experiments use to match decomposition granularities between algorithms,
// as the paper does when comparing against MPX. Every trial decomposition
// runs under ctx, so a cancel stops the search within one growth round and
// returns ctx.Err().
func TauForTargetClusters(ctx context.Context, g *graph.Graph, target int, tolerance float64, opt Options) (tau int, got *Clustering, err error) {
	if target < 1 {
		return 0, nil, errors.New("core: target clusters must be >= 1")
	}
	n := g.NumNodes()
	logn := log2n(n)
	// Expected clusters per batch ≈ centerFactor·τ·log n and about log n
	// batches, so start from target / (centerFactor·log n·loglog-ish).
	tau = int(float64(target) / (centerFactor * logn))
	if tau < 1 {
		tau = 1
	}
	var best *Clustering
	bestTau := tau
	bestGap := math.Inf(1)
	lo, hi := 1, 0 // hi=0 means unbounded above
	for iter := 0; iter < 24; iter++ {
		cl, cerr := ClusterContext(ctx, g, tau, opt)
		if cerr != nil {
			return 0, nil, cerr
		}
		gotK := cl.NumClusters()
		gap := math.Abs(float64(gotK-target)) / float64(target)
		if gap < bestGap {
			best, bestTau, bestGap = cl, tau, gap
		}
		if gap <= tolerance {
			return tau, cl, nil
		}
		if gotK < target {
			lo = tau + 1
			if hi == 0 {
				tau *= 2
			} else {
				tau = (lo + hi) / 2
			}
		} else {
			hi = tau
			tau = (lo + hi) / 2
		}
		if tau < lo {
			tau = lo
		}
		if hi != 0 && tau >= hi {
			tau = hi - 1
		}
		if tau < 1 || (hi != 0 && lo >= hi) {
			break
		}
	}
	return bestTau, best, nil
}
