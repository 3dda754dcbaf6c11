package graph

import (
	"math"
	"math/bits"
)

// Sequential all-pairs kernels for graphs small enough to stay in cache —
// the weighted quotient graphs of Section 4, which the paper too processes
// inside one reducer's local memory. One per-worker scratch serves two
// kernels over an Overlay: a weighted row (Row) lifts the source to the
// overlay's core, runs a Dial bucket-queue search there (SSSP: Dial, CACM
// 1969, a ring of unit-width buckets, one per distance, sized to the
// heaviest core arc and the lifted seeds' spread) and sweeps back down the
// eliminated levels; a bit-parallel multi-source BFS (Then et al., VLDB
// 2014) fills the hop rows of up to 64 sources per pass over the whole
// graph. DijkstraInto and BFS stay as the references the tests diff them
// against.
//
// Both write the narrow cells the oracle stores and the snapshot persists,
// so a row's cells are copied into the tables as they are. The oracle runs
// them only from the clusters outside an independent set of its quotient
// and derives the set's rows from their cells, so the sources of one HopRows
// pass are a list, not a range.
//
// Precondition, not checked here: every finite distance plus the heaviest
// arc is below 2³¹ (SSSP adds a weight to a settled distance in uint32 and
// reads "newly reached" off bit 31 of the old cell), and the graph has at
// most 2¹⁶ − 1 nodes (a hop count is below the node count). NewOverlay keeps
// the first half on its core by taking fewer levels; core.OracleFromClustering,
// the only non-test caller, checks both on the whole quotient before it
// allocates a table: narrowCellsFit and the maxOracleClusters cap.

// APSPBlock is how many sources one HopRows pass serves: one bit of a
// machine word each.
const APSPBlock = 64

// InfDist32 and InfHops mark the unreachable cells of an SSSP row and of a
// HopRows row: InfDist at the rows' own widths.
const (
	InfDist32 uint32 = math.MaxUint32
	InfHops   uint16 = math.MaxUint16
)

// APSPScratch is the reusable state of the kernels over one overlay:
// O(n + ring) words, allocated once, after which no kernel allocates
// (pinned by TestAPSPKernelsZeroAlloc). It is not safe for concurrent use;
// a parallel caller gives every goroutine its own.
type APSPScratch struct {
	ov *Overlay

	// Dial queue over the core: a circular array of unit-width buckets. A
	// queued node's tentative distance lies within the ring of the bucket
	// being settled (the ring exceeds both the heaviest core arc and the
	// seeds' spread), so a power-of-two ring never wraps onto itself. A
	// bucket is a circular doubly-linked list through links, closed by its
	// slot's own entry links[n+slot]; a node in no bucket is linked to
	// itself. Unlinking and linking are therefore the same few stores
	// whether or not the node was queued or the bucket empty: the
	// relaxation path branches on "is it shorter" and nothing else, which is
	// worth a sixth of the run time on a road-like quotient.
	mask  int
	links []bucketLink
	occ   []uint64 // one bit per slot, set on link, cleared on visit: empty slots are skipped a word at a time

	// Row: the core cells, and one bit per eliminated node (by its index in
	// the overlay's order) for the lift's pending nodes.
	seeds   []uint32
	pending []uint64

	// Bit-parallel BFS: bit i of a node's word speaks for the pass's i-th
	// source.
	seen, frontier, reached []uint64
}

type bucketLink struct{ next, prev uint32 }

// NewAPSPScratch sizes the kernels' scratch for o: the ring has the
// overlay's slot count, at least one bitmap word.
func (o *Overlay) NewAPSPScratch() *APSPScratch {
	n, c := o.g.NumNodes(), o.core.NumNodes()
	s := &APSPScratch{
		ov:       o,
		mask:     o.ring - 1,
		links:    make([]bucketLink, c+o.ring),
		occ:      make([]uint64, o.ring/64),
		seeds:    make([]uint32, c),
		pending:  make([]uint64, (len(o.order)+63)/64),
		seen:     make([]uint64, n),
		frontier: make([]uint64, n),
		reached:  make([]uint64, n),
	}
	for i := c; i < c+o.ring; i++ {
		s.links[i] = bucketLink{uint32(i), uint32(i)}
	}
	return s
}

// Row overwrites row (len NumNodes of the overlay's graph) with the
// shortest-path distances from src, InfDist32 for unreachable nodes — what
// DijkstraInto computes, cell for cell, under the precondition in this
// file's header. It returns the relaxations weighed — the arcs the core
// search scans, plus one min-term per arc the lift follows out of a reached
// node and per arc the sweep reads (every kept arc) — and the distinct
// distances the core search settles.
func (s *APSPScratch) Row(src NodeID, row []uint32) (relaxations int64, buckets int) {
	o := s.ov
	for i := range row {
		row[i] = InfDist32
	}
	seeds := s.seeds
	for i := range seeds {
		seeds[i] = InfDist32
	}
	if p := o.pos[src]; p < 0 {
		seeds[-1-p] = 0
	} else {
		row[src] = 0
		relaxations = s.lift(int(p), row)
	}
	arcs, buckets := s.SSSP(seeds)
	for i, v := range o.ids {
		row[v] = seeds[i]
	}
	// Sweep: every kept arc leads to a later level or the core, final by
	// the time the arcs, taken last to first, come down to its level; one
	// flat pass over the arcs, with no loop per node whose exit would be
	// mispredicted node after node. Sums run in 64 bits, so an unreachable
	// cell stays above every finite one instead of wrapping.
	from, to, w := o.from, o.to, o.w
	from, w = from[:len(to)], w[:len(to)]
	for j := len(to) - 1; j >= 0; j-- {
		x := from[j]
		row[x] = uint32(min(uint64(row[x]), uint64(row[to[j]])+uint64(w[j])))
	}
	return relaxations + arcs + int64(len(to)), buckets
}

// lift relaxes the kept arcs out of every node reachable from order[from]
// along kept arcs, into row for eliminated nodes and into s.seeds for core
// ones, and returns the arcs relaxed. Kept arcs climb to later levels,
// which come later in order, so taking the pending nodes in order settles
// each before its arcs are read.
func (s *APSPScratch) lift(from int, row []uint32) (arcs int64) {
	o, seeds, pending := s.ov, s.seeds, s.pending
	pending[from>>6] |= 1 << (from & 63)
	for i := from >> 6; i < len(pending); i++ {
		for pending[i] != 0 {
			p := i<<6 + bits.TrailingZeros64(pending[i])
			pending[i] &= pending[i] - 1
			d := row[o.order[p]]
			lo, hi := o.arcs[p], o.arcs[p+1]
			arcs += int64(hi - lo)
			for j := lo; j < hi; j++ {
				u, nd := o.to[j], d+uint32(o.w[j])
				if q := o.pos[u]; q < 0 {
					seeds[-1-q] = min(seeds[-1-q], nd)
				} else if nd < row[u] {
					row[u] = nd
					pending[q>>6] |= 1 << (q & 63)
				}
			}
		}
	}
	return arcs
}

// SSSP runs one Dial search on the overlay's core from seeds: dist (len the
// core's NumNodes, in its ids) holds each seed's starting distance and
// InfDist32 everywhere else, and is overwritten with every node's least
// seed distance plus path length, InfDist32 for nodes no seed reaches. A
// single source is the one-seed case. The seeds' spread (largest minus
// smallest) must be below the ring, as a lift's is; over an overlay with no
// level the core is the graph itself.
// It returns the arcs scanned (the degrees of the reached nodes: every node
// is settled once, so the count does not depend on any schedule) and the
// number of non-empty buckets settled (the distinct finite distances).
func (s *APSPScratch) SSSP(dist []uint32) (arcs int64, buckets int) {
	core := s.ov.core
	xadj, adj, w := core.xadj, core.adj, core.w
	links, occ, mask := s.links, s.occ, s.mask
	n := uint32(len(dist))
	// relink moves v, at tentative distance d, first into d's bucket:
	// unlinking a node in no bucket rewrites its self-links.
	relink := func(v, d uint32) {
		l := links[v]
		links[l.next].prev, links[l.prev].next = l.prev, l.next
		to := int(d) & mask
		h := n + uint32(to)
		first := links[h].next
		links[v] = bucketLink{first, h}
		links[first].prev, links[h].next = v, v
		occ[to>>6] |= 1 << (to & 63)
	}
	queued := 0
	cur := InfDist32 // distance of the bucket being settled; only ever grows
	for i, d := range dist {
		links[i] = bucketLink{uint32(i), uint32(i)}
		if d != InfDist32 {
			relink(uint32(i), d)
			queued++
			cur = min(cur, d)
		}
	}
	for queued > 0 {
		slot := s.nextOccupied(int(cur) & mask)
		cur += uint32((slot - int(cur)) & mask)
		occ[slot>>6] &^= 1 << (slot & 63)
		head := n + uint32(slot)
		if links[head].next == head {
			continue // every node queued here has since found a shorter path
		}
		buckets++
		// Weights are >= 1 and below the ring size, so relaxing out of this
		// bucket neither adds to it nor unlinks from it: the list is
		// stable while it is walked.
		for u := links[head].next; u != head; u = links[u].next {
			queued--
			lo, hi := xadj[u], xadj[u+1]
			arcs += hi - lo
			for j := lo; j < hi; j++ {
				v, nd := uint32(adj[j]), cur+uint32(w[j])
				old := dist[v]
				if nd >= old {
					continue
				}
				dist[v] = nd
				queued += int(old >> 31) // only InfDist32 has bit 31 set: v is newly reached
				relink(v, nd)
			}
		}
		links[head] = bucketLink{head, head}
	}
	return arcs, buckets
}

// nextOccupied returns the first slot at or circularly after from whose
// occupancy bit is set. At least one must be.
func (s *APSPScratch) nextOccupied(from int) int {
	occ := s.occ
	i := from >> 6
	if b := occ[i] >> (from & 63); b != 0 {
		return from + bits.TrailingZeros64(b)
	}
	for {
		i = (i + 1) & (len(occ) - 1)
		if occ[i] != 0 {
			return i<<6 + bits.TrailingZeros64(occ[i])
		}
	}
}

// HopRows runs one breadth-first search from each of the len(srcs)
// distinct sources (at most APSPBlock of them, in any order) in a single
// bit-parallel pass, and writes srcs[i]'s hop distances to
// rows[i*n:(i+1)*n] — what BFS computes, with InfHops where BFS says -1.
// Every cell of those len(srcs) rows is written exactly once. It returns the
// number of sweeps that discovered a node: the largest hop eccentricity
// among the sources.
func (s *APSPScratch) HopRows(srcs []NodeID, rows []uint16) (sweeps int) {
	xadj, adj := s.ov.g.xadj, s.ov.g.adj
	seen, frontier, reached := s.seen, s.frontier, s.reached
	n := len(seen)
	clear(seen)
	clear(frontier)
	for i, src := range srcs {
		seen[src], frontier[src] = 1<<i, 1<<i
		rows[i*n+int(src)] = 0
	}
	for level := uint16(1); ; level++ {
		for v, f := range frontier {
			if f == 0 {
				continue
			}
			for _, u := range adj[xadj[v]:xadj[v+1]] {
				reached[u] |= f
			}
		}
		grew := false
		for u, r := range reached {
			fresh := r &^ seen[u]
			reached[u], frontier[u] = 0, fresh
			if fresh == 0 {
				continue
			}
			grew = true
			seen[u] |= fresh
			for ; fresh != 0; fresh &= fresh - 1 {
				rows[bits.TrailingZeros64(fresh)*n+u] = level
			}
		}
		if !grew {
			break
		}
		sweeps++
	}
	all := ^uint64(0) >> (64 - len(srcs))
	for u, sn := range seen {
		for miss := all &^ sn; miss != 0; miss &= miss - 1 {
			rows[bits.TrailingZeros64(miss)*n+u] = InfHops
		}
	}
	return sweeps
}
