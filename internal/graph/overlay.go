package graph

import (
	"cmp"
	"math"
	"slices"
)

// Overlay is a contraction of a weighted graph for computing whole
// distance rows: the up-then-down scheme of contraction hierarchies
// (Geisberger et al., WEA 2008) and PHAST (Delling, Goldberg, Nowatzyk and
// Werneck, IPDPS 2011), with one independent set eliminated per level.
//
// Level 0 eliminates the greedy independent set of IndependentSet, and every
// later level the greedy independent set of the graph the level before left.
// Eliminating x joins every pair u, v of its remaining neighbours by a
// shortcut w(u,x) + w(x,v), the lighter arc of a pair surviving, so the
// graph left after any level keeps the distances between its nodes: an arc
// weighs the shortest path between its ends whose inner nodes are all
// eliminated. What the last level leaves is the core. Contraction stops,
// by rule rather than by a tuning constant, before the first level that
// would not lower the edge count; the levels, the independent sets and the
// core's nodes depend on g's structure alone, not on its weights.
//
// Every eliminated node keeps its arcs to the nodes left when it went, all
// on later levels or in the core, bar those a path of two arcs matches or
// beats (w(x,y) + w(y,u) <= w(x,u)); a contracted core drops such arcs too.
// Neither moves a distance, and neither changes which levels are taken: on
// the `fine` benchmark workload's quotient they are a third of the core's
// arcs. With the core's own distances in a table (CoreTable, one search
// from each core node), a row from src is then (CoreTable.Row):
//  1. a lift: src's shortest distances along those arcs, level by level,
//     up to the core, whose nodes it reaches are the seeds;
//  2. every core node's distance, the least over the seeds of the seed's
//     lifted distance plus its table cell;
//  3. a sweep down the levels, setting each eliminated x to the least of
//     its lifted value and row[u] + w(u,x) over its kept arcs.
//
// A shortest path climbs to its highest node and descends, each step along
// a kept arc or inside the core (a dropped arc's witness path is no longer
// and starts with a lighter kept one), so the three steps give the rows a
// search of the whole graph gives, cell for cell. The overlay depends on the graph
// alone and takes O(arcs of every level) words; it is read-only once built,
// so any number of scratches and tables may share it.
type Overlay struct {
	g    *Weighted // the graph the rows are over
	core *Weighted // what the last level left, its nodes renumbered in ascending id order
	ids  []NodeID  // ids[i] is core node i's id in g

	// order lists the eliminated nodes in elimination order, level by
	// level; order[p] kept the arcs j in [arcs[p], arcs[p+1]), from
	// from[j] = order[p] to to[j] weighing w[j] (ids in g).
	levels   int
	order    []NodeID
	arcs     []int32
	from, to []NodeID
	w        []int32

	// set and rest are g's IndependentSet split, level 0's candidate,
	// kept whether or not level 0 is taken.
	set, rest []NodeID

	pos []int32 // pos[v]: v's index in order, or −1 − its core id
}

// NewOverlay contracts g. The caller guarantees that every simple path of g
// weighs at most math.MaxInt32. Every arc of a level weighs a shortest path
// of g whose inner nodes were eliminated, a simple path, so no arc then
// saturates, and every finite distance fits an int32.
func NewOverlay(g *Weighted) *Overlay {
	n := g.NumNodes()
	o := &Overlay{g: g, arcs: []int32{0}, pos: make([]int32, n)}
	ids := make([]NodeID, n)
	for v := range ids {
		ids[v] = NodeID(v)
	}
	at, dead := make([]int32, n), []bool(nil) // beaten's scratch
	cur := g
	for {
		set, rest := cur.IndependentSet()
		if cur == g {
			o.set, o.rest = set, rest
		}
		id := make([]NodeID, cur.NumNodes()) // cur's ids in next, −1 for set
		for _, x := range set {
			id[x] = -1
		}
		for i, v := range rest {
			id[v] = NodeID(i)
		}
		next := eliminate(cur, rest, id)
		if next.NumEdges() >= cur.NumEdges() {
			break
		}
		for _, x := range set {
			o.pos[ids[x]] = int32(len(o.order))
			o.order = append(o.order, ids[x])
			nbrs, wts := cur.Neighbors(x)
			dead = beaten(cur, x, at, dead)
			for j, u := range nbrs {
				if !dead[j] {
					o.from = append(o.from, ids[x])
					o.to = append(o.to, ids[u])
					o.w = append(o.w, wts[j])
				}
			}
			o.arcs = append(o.arcs, int32(len(o.to)))
		}
		o.levels++
		for i, v := range rest {
			ids[i] = ids[v]
		}
		ids, cur = ids[:len(rest)], next
	}
	if o.levels > 0 { // with no level taken, the core stays g itself
		cur = withoutBeaten(cur, at)
	}
	o.core, o.ids = cur, ids
	for i, v := range ids {
		o.pos[v] = -1 - int32(i)
	}
	return o
}

// eliminate returns the graph cur leaves when an independent set is
// eliminated: the rest, renumbered by id (−1 marks the set), their arcs
// among themselves, and a shortcut through every eliminated node for each
// pair of its neighbours, the lighter arc of a pair surviving. A shortcut
// too heavy for an int32 saturates; under NewOverlay's precondition the
// arc that survives for its pair weighs a path. Each list is filled once,
// with room for every shortcut it could take, then packed.
func eliminate(cur *Weighted, rest, id []NodeID) *Weighted {
	xadj := make([]int64, len(rest)+1)
	for i, u := range rest {
		room := int64(0)
		for _, v := range cur.adj[cur.xadj[u]:cur.xadj[u+1]] {
			if id[v] >= 0 {
				room++
			} else {
				room += int64(cur.Degree(v) - 1)
			}
		}
		xadj[i+1] = xadj[i] + room
	}
	adj, w := make([]NodeID, xadj[len(rest)]), make([]int32, xadj[len(rest)])
	// at[t] is where t sits in the list being filled, if it is at or past
	// that list's start: lists fill in order, so older entries fall below.
	at := make([]int64, len(rest))
	for t := range at {
		at[t] = -1
	}
	put := func(lo, end int64, t NodeID, d int32) int64 {
		if p := at[t]; p >= lo {
			w[p] = min(w[p], d)
			return end
		}
		adj[end], w[end], at[t] = t, d, end
		return end + 1
	}
	var packed int64
	for i, u := range rest {
		lo, end := xadj[i], xadj[i]
		nbrs, wts := cur.Neighbors(u)
		for j, v := range nbrs {
			if id[v] >= 0 {
				end = put(lo, end, id[v], wts[j])
			}
		}
		for j, x := range nbrs {
			if id[x] >= 0 {
				continue
			}
			far, farW := cur.Neighbors(x)
			for f, v := range far {
				if v != u {
					end = put(lo, end, id[v], int32(min(int64(wts[j])+int64(farW[f]), math.MaxInt32)))
				}
			}
		}
		xadj[i] = packed
		packed += int64(copy(adj[packed:], adj[lo:end]))
		copy(w[xadj[i]:], w[lo:end])
	}
	xadj[len(rest)] = packed
	return &Weighted{xadj: xadj, adj: adj[:packed], w: w[:packed]}
}

// beaten sets dead[j] for each arc j of u that a path of two arcs
// u → x → v matches or beats: w(u,x) + w(x,v) <= w(u,v). Any set of such
// arcs can go at once without moving a distance, since a witness's arcs are
// each lighter than the arc they beat. at (len NumNodes, all zero) is
// scratch, left zero; dead is reused.
func beaten(g *Weighted, u NodeID, at []int32, dead []bool) []bool {
	nbrs, wts := g.Neighbors(u)
	dead = append(dead[:0], make([]bool, len(nbrs))...)
	for j, v := range nbrs {
		at[v] = int32(j + 1)
	}
	for i, x := range nbrs {
		far, farW := g.Neighbors(x)
		for f, v := range far {
			if j := at[v] - 1; j >= 0 && int64(wts[i])+int64(farW[f]) <= int64(wts[j]) {
				dead[j] = true
			}
		}
	}
	for _, v := range nbrs {
		at[v] = 0
	}
	return dead
}

// withoutBeaten returns g without the arcs beaten finds: the same distances
// over fewer arcs. at is beaten's scratch.
func withoutBeaten(g *Weighted, at []int32) *Weighted {
	n := g.NumNodes()
	out := &Weighted{xadj: make([]int64, n+1)}
	var dead []bool
	for u := range n {
		dead = beaten(g, NodeID(u), at, dead)
		nbrs, wts := g.Neighbors(NodeID(u))
		for j, v := range nbrs {
			if !dead[j] {
				out.adj, out.w = append(out.adj, v), append(out.w, wts[j])
			}
		}
		out.xadj[u+1] = int64(len(out.adj))
	}
	return out
}

// IndependentSet splits g's nodes into set, a maximal independent set taken
// greedily in (degree, id) order, and rest, the others, each in ascending
// id order. Low degrees go first: they join the fewest neighbours by
// shortcuts when set is eliminated, and a row derived from neighbours costs
// one min-term per neighbour. The choice depends on g alone.
func (g *Weighted) IndependentSet() (set, rest []NodeID) {
	k := g.NumNodes()
	order := make([]NodeID, k)
	for c := range order {
		order[c] = NodeID(c)
	}
	slices.SortFunc(order, func(a, b NodeID) int {
		return cmp.Or(cmp.Compare(g.Degree(a), g.Degree(b)), cmp.Compare(a, b))
	})
	in := make([]bool, k)
	for _, x := range order {
		nbrs, _ := g.Neighbors(x)
		in[x] = !slices.ContainsFunc(nbrs, func(u NodeID) bool { return in[u] })
	}
	for c, ok := range in {
		if ok {
			set = append(set, NodeID(c))
		} else {
			rest = append(rest, NodeID(c))
		}
	}
	return set, rest
}

// Split returns g's IndependentSet split, which level 0 eliminates when it
// is taken: the overlay computes it before any stop rule, so it is there
// even when no level is. Both slices alias the overlay and must not be
// modified.
func (o *Overlay) Split() (set, rest []NodeID) { return o.set, o.rest }

// Levels returns how many levels were eliminated.
func (o *Overlay) Levels() int { return o.levels }

// Core returns what the last level left and, for each of its nodes, its id
// in the contracted graph. Both alias the overlay and must not be modified.
func (o *Overlay) Core() (*Weighted, []NodeID) { return o.core, o.ids }

// Kept returns the arcs eliminated node x kept to the nodes left when it
// went, nil for a core node. Both slices alias the overlay and must not be
// modified.
func (o *Overlay) Kept(x NodeID) ([]NodeID, []int32) {
	p := o.pos[x]
	if p < 0 {
		return nil, nil
	}
	return o.to[o.arcs[p]:o.arcs[p+1]], o.w[o.arcs[p]:o.arcs[p+1]]
}
