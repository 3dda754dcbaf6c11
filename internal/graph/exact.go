package graph

import (
	"context"
	"sort"

	"repro/internal/bsp"
)

// Exact diameter computation via the iFUB (iterative Fringe Upper Bound)
// method of Crescenzi et al. [10 in the paper]. iFUB computes the exact
// diameter of a connected graph using, in practice, far fewer searches
// than full APSP: pick a root r (here via the 4-sweep), and scan nodes in
// decreasing distance from r; the eccentricity of the nodes at level i,
// plus the bound 2i for everything below, pinch the diameter.
//
// The method is written once, generic in the distance type, against two
// closures: a full single-source search and a walk-back-one-step along a
// shortest path. ExactDiameter plugs in BFS on one shared
// direction-optimizing bsp.Engine; ExactDiameterWeighted plugs in SSSP on
// one shared bsp.WeightedEngine, a sequential radix-heap search whose heap
// every search reuses.

// ExactDiameter computes the exact diameter of the graph; on a
// disconnected graph, the maximum diameter over its components. maxBFS
// bounds the total number of BFS runs, shared by all components (0 means
// unlimited); if the bound is hit, the result is the best lower bound
// found and exact is false.
func (g *Graph) ExactDiameter(maxBFS int) (diam int32, exact bool) {
	// A background context never cancels, so the error is unreachable.
	//lint:allow background public non-cancellable wrapper; ExactDiameterContext is the cancellable form
	diam, exact, _ = g.ExactDiameterContext(context.Background(), maxBFS)
	return diam, exact
}

// ExactDiameterContext is ExactDiameter with cooperative cancellation: the
// iFUB loop checks ctx at every search boundary (and its shared engine
// stops at superstep barriers within a search), returning ctx.Err() with
// the bounds discarded. The serving layer uses it so an abandoned diameter
// build does not keep burning Θ(n) BFS runs.
func (g *Graph) ExactDiameterContext(ctx context.Context, maxBFS int) (diam int32, exact bool, err error) {
	e := bsp.NewEngine(g, 0)
	e.SetContext(ctx)
	defer e.Close()
	r := ifub[int32]{
		ctx: ctx, g: g, left: maxBFS, none: -1,
		search: func(src NodeID, dist []int32) (int32, error) { return e.BFS(src, dist), e.Err() },
		prev: func(u NodeID, dist []int32) NodeID {
			for _, w := range g.Neighbors(u) {
				if dist[w] == dist[u]-1 {
					return w
				}
			}
			return u
		},
	}
	return r.run()
}

// ExactDiameterWeighted computes the exact weighted diameter via iFUB with
// shortest-path searches, every one on one shared bsp.WeightedEngine (a
// sequential radix-heap search, distances identical to Dijkstra's). Disconnected graphs return the maximum over components
// (unreachable pairs are ignored). maxSearches bounds the total number of
// searches, shared by all components (0 = unlimited); if exhausted, the
// returned value is a lower bound and exact is false.
func (g *Weighted) ExactDiameterWeighted(maxSearches int) (diam int64, exact bool) {
	// A background context never cancels, so the error is unreachable.
	//lint:allow background public non-cancellable wrapper; ExactDiameterWeightedContext is the cancellable form
	diam, exact, _ = g.ExactDiameterWeightedContext(context.Background(), maxSearches)
	return diam, exact
}

// ExactDiameterWeightedContext is ExactDiameterWeighted with cooperative
// cancellation, checking ctx at every search boundary (and, through the
// shared engine, at the start of every search); a cancelled run returns
// ctx.Err() with the bounds discarded.
func (g *Weighted) ExactDiameterWeightedContext(ctx context.Context, maxSearches int) (diam int64, exact bool, err error) {
	e := bsp.NewWeightedEngine(g, 0, 0)
	e.SetContext(ctx)
	defer e.Close()
	r := ifub[int64]{
		ctx: ctx, g: g.Topology(), left: maxSearches, none: InfDist,
		search: func(src NodeID, dist []int64) (int64, error) { return e.SSSP(src, dist), e.Err() },
		prev: func(u NodeID, dist []int64) NodeID {
			nbrs, ws := g.Neighbors(u)
			for i, w := range nbrs {
				if dist[w] != InfDist && dist[w]+int64(ws[i]) == dist[u] {
					return w
				}
			}
			return u
		},
	}
	return r.run()
}

// ifub is one exact-diameter computation: the metric's two closures, the
// search budget, and the best lower bound found so far.
type ifub[D int32 | int64] struct {
	ctx context.Context
	g   *Graph // topology: components, degrees
	// left is the number of searches the budget still allows; 0 on entry
	// means unlimited (held as -1).
	left int
	// none marks unreached nodes in the arrays search fills.
	none D
	// search fills dist (len n) with the distances from src and returns the
	// eccentricity of src within its component.
	search func(src NodeID, dist []D) (D, error)
	// prev returns a neighbor of u one step closer to the source of dist
	// along a shortest path (u itself if there is none).
	prev func(u NodeID, dist []D) NodeID

	lower D
	err   error
}

// run walks the components — each from its maximum-degree node, lowest id
// among ties, exactly MaxDegree's choice on a connected graph — and returns
// the largest diameter. The budget and the lower bound are shared: a level
// whose bound 2i cannot beat a diameter already found in another component
// is pruned like any other.
func (r *ifub[D]) run() (D, bool, error) {
	if r.left == 0 {
		r.left = -1
	}
	labels, k := r.g.ConnectedComponents()
	starts := make([]NodeID, k)
	for i := range starts {
		starts[i] = None
	}
	for u, c := range labels {
		if s := starts[c]; s == None || r.g.Degree(NodeID(u)) > r.g.Degree(s) {
			starts[c] = NodeID(u)
		}
	}
	var dist [4][]D
	for i := range dist {
		dist[i] = make([]D, len(labels))
	}
	for _, s := range starts {
		if r.g.Degree(s) == 0 {
			continue // an isolated node: diameter 0, nothing to search
		}
		if !r.component(s, dist) {
			return r.lower, false, r.err
		}
	}
	return r.lower, true, nil
}

// spend gates each search: false on a cancelled context (recorded in err,
// so it surfaces as an error) or an exhausted budget (err stays nil, so it
// surfaces as an inexact lower bound).
func (r *ifub[D]) spend() bool {
	if r.err = r.ctx.Err(); r.err != nil || r.left == 0 {
		return false
	}
	if r.left > 0 {
		r.left--
	}
	return true
}

// sweep spends one search from src and folds its eccentricity into the
// lower bound. A search that fails contributes nothing: its distances are
// partial (a cancelled BFS stops at a superstep barrier, a cancelled
// weighted search before it leaves its source), and an eccentricity is
// only folded in from a complete search — one rule for both.
func (r *ifub[D]) sweep(src NodeID, dist []D) bool {
	if !r.spend() {
		return false
	}
	ecc, err := r.search(src, dist)
	if err != nil {
		r.err = err
		return false
	}
	r.lower = max(r.lower, ecc)
	return true
}

// farthest returns the lowest-id node at maximum distance in dist.
func (r *ifub[D]) farthest(dist []D) NodeID {
	best, arg := D(-1), NodeID(0)
	for u, d := range dist {
		if d != r.none && d > best {
			best, arg = d, NodeID(u)
		}
	}
	return arg
}

// root selects the iFUB root of start's component by the 4-sweep scheme
// (Crescenzi et al.): two double sweeps yield far-apart extremes a and c,
// and the root minimizing the largest distance to a, b and c sits "between"
// them, which keeps the level distribution shallow. A naive midpoint walk
// can land on a corner of a grid-like graph (walking the boundary of a
// mesh), leaving half the nodes above the pruning level; and a and c alone
// can end up on one side (two corners of one row), so b — the far end of
// the first double sweep — is the third reference that pins the root to
// the true center. Starting from a maximum-degree node keeps the first
// extreme off the degenerate boundary geodesics a corner start produces.
func (r *ifub[D]) root(start NodeID, dist [4][]D) (NodeID, bool) {
	tmp, distA, distB, distC := dist[0], dist[1], dist[2], dist[3]
	if !r.sweep(start, tmp) {
		return 0, false
	}
	a := r.farthest(tmp)
	if !r.sweep(a, distA) {
		return 0, false
	}
	b := r.farthest(distA)
	// Midpoint of the first double sweep: walk back from b halfway to a.
	mid, eccA := b, distA[b]
	for 2*distA[mid] > eccA+1 {
		w := r.prev(mid, distA)
		if w == mid {
			break
		}
		mid = w
	}
	if !r.sweep(mid, tmp) {
		return 0, false
	}
	c := r.farthest(tmp)
	if !r.sweep(c, distC) || !r.sweep(b, distB) {
		return 0, false
	}
	root, best := start, D(-1)
	for u := range tmp {
		if distA[u] == r.none || distB[u] == r.none || distC[u] == r.none {
			continue
		}
		if m := max(distA[u], distB[u], distC[u]); best < 0 || m < best {
			best, root = m, NodeID(u)
		}
	}
	return root, true
}

// component runs iFUB on start's component and reports whether its
// diameter is now certified to be at most lower.
func (r *ifub[D]) component(start NodeID, dist [4][]D) bool {
	root, ok := r.root(start, dist)
	tmp, distR := dist[0], dist[1]
	if !ok || !r.sweep(root, distR) {
		return false
	}
	// Order the component's nodes by decreasing distance from the root.
	var order []NodeID
	for u, d := range distR {
		if d != r.none {
			order = append(order, NodeID(u))
		}
	}
	sort.Slice(order, func(i, j int) bool { return distR[order[i]] > distR[order[j]] })

	// Fringe loop: every node below level i has eccentricity at most 2i, so
	// once 2i cannot beat the lower bound the diameter is certified.
	for i := 0; i < len(order); {
		level := distR[order[i]]
		for ; i < len(order) && distR[order[i]] == level; i++ {
			if 2*level <= r.lower {
				return true
			}
			if !r.sweep(order[i], tmp) {
				return false
			}
		}
	}
	return true
}
