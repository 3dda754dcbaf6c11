package graph

import (
	"math"
	"math/bits"
)

// Sequential all-pairs kernels for graphs small enough to stay in cache —
// the weighted quotient graphs of Section 4, which the paper too processes
// inside one reducer's local memory. Two kernels share one per-worker
// scratch: a Dial bucket-queue SSSP (Dial, CACM 1969: a ring of unit-width
// buckets, one per distance, sized to the heaviest arc) for the weighted
// rows, and a bit-parallel multi-source BFS (Then et al., VLDB 2014) that
// fills the hop rows of up to 64 sources per pass. DijkstraInto and BFS stay as the
// references the tests diff them against.
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
// most 2¹⁶ − 1 nodes (a hop count is below the node count).
// core.OracleFromClustering, the only non-test caller, checks both before it
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

// APSPScratch is the reusable state of the two kernels over one graph:
// O(n + max edge weight) words, allocated once, after which neither kernel
// allocates (pinned by TestAPSPKernelsZeroAlloc). It is not safe for
// concurrent use; a parallel caller gives every goroutine its own.
type APSPScratch struct {
	g *Weighted

	// Dial queue: a circular array of unit-width buckets. A queued node's
	// tentative distance lies within max-weight of the bucket being
	// settled, so a power-of-two ring larger than the heaviest edge never
	// wraps onto itself. A bucket is a circular doubly-linked list through
	// links, closed by its slot's own entry links[n+slot]; a node in no
	// bucket is linked to itself. Unlinking and linking are therefore the
	// same few stores whether or not the node was queued or the bucket
	// empty: the relaxation path branches on "is it shorter" and nothing
	// else, which is worth a sixth of the run time on a road-like quotient.
	mask  int
	links []bucketLink
	occ   []uint64 // one bit per slot, set on link, cleared on visit: empty slots are skipped a word at a time

	// Bit-parallel BFS: bit i of a node's word speaks for the pass's i-th
	// source.
	seen, frontier, reached []uint64
}

type bucketLink struct{ next, prev uint32 }

// NewAPSPScratch sizes the kernels' scratch for g. The ring has
// nextPow2(maxW+1) slots (at least one bitmap word); for the oracle's
// quotients maxW <= 2·RMax+1 by quotient.BuildWeighted's construction, so
// the ring is a few cache lines.
func (g *Weighted) NewAPSPScratch() *APSPScratch {
	n := g.NumNodes()
	ring := max(64, 1<<bits.Len32(uint32(g.MaxWeight())))
	s := &APSPScratch{
		g:        g,
		mask:     ring - 1,
		links:    make([]bucketLink, n+ring),
		occ:      make([]uint64, ring/64),
		seen:     make([]uint64, n),
		frontier: make([]uint64, n),
		reached:  make([]uint64, n),
	}
	for i := n; i < n+ring; i++ {
		s.links[i] = bucketLink{uint32(i), uint32(i)}
	}
	return s
}

// SSSP overwrites dist (len NumNodes) with the shortest-path distances from
// src, InfDist32 for unreachable nodes — what DijkstraInto computes, cell
// for cell, under the precondition in this file's header.
// It returns the arcs scanned (the degrees of the reached nodes: every node
// is settled once, so the count does not depend on any schedule) and the
// number of non-empty buckets settled (the distinct finite distances).
func (s *APSPScratch) SSSP(src NodeID, dist []uint32) (arcs int64, buckets int) {
	xadj, adj, w := s.g.xadj, s.g.adj, s.g.w
	links, occ, mask := s.links, s.occ, s.mask
	n := uint32(len(dist))
	for i := range dist {
		dist[i] = InfDist32
		links[i] = bucketLink{uint32(i), uint32(i)}
	}
	dist[src] = 0
	links[src] = bucketLink{n, n}
	links[n] = bucketLink{uint32(src), uint32(src)}
	occ[0] = 1
	queued := 1
	var cur uint32 // distance of the bucket being settled; only ever grows
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
				l := links[v]
				links[l.next].prev, links[l.prev].next = l.prev, l.next
				to := int(nd) & mask
				h := n + uint32(to)
				first := links[h].next
				links[v] = bucketLink{first, h}
				links[first].prev, links[h].next = v, v
				occ[to>>6] |= 1 << (to & 63)
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
	xadj, adj := s.g.xadj, s.g.adj
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
