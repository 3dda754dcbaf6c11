package graph

import (
	"math"
	"math/bits"

	"repro/internal/bsp"
)

// Sequential all-pairs kernels for graphs small enough to stay in cache —
// the quotient graphs of Section 4, which the paper too processes inside
// one reducer's local memory. They run over an Overlay, and one row kernel
// serves every table, weighted distances and hop counts alike (a hop count
// is a distance on the graph with unit weights):
//
//   - a CoreTable holds the distances between every two of the overlay's
//     core nodes. Fill computes its row i by one search on the core from
//     core node i, on the radix-heap bsp.WeightedEngine that weighted iFUB
//     runs on too;
//   - Row computes a whole row from any source with no search at all: it
//     lifts the source to the core, takes each core cell as the least of a
//     lifted seed plus that seed's table row (many-to-many distances through
//     a contraction's core: Knopp, Sanders, Schultes, Schulz and Wagner,
//     ALENEX 2007), and sweeps back down the eliminated levels (PHAST's row
//     sweep: Delling, Goldberg, Nowatzyk and Werneck, IPDPS 2011).
//
// A table takes C² cells for a core of C nodes; on the `fine` benchmark
// workload's quotient (3,530 clusters, a core of 572) that is 1.3 MB of
// distances and 0.65 MB of hop counts. An overlay that took no level has the
// whole graph for its core, so its table stores nothing: Row runs the one
// search Fill would have stored. The rows are written in the narrow
// cells the oracle stores and the snapshot persists, so a row's cells are
// copied into the tables as they are; a test's Dijkstra and BFS are the
// references the kernels are diffed against.
//
// Preconditions, not checked here: NewOverlay's, and every finite distance
// is below the all-ones cell of the table's width (a hop count is below the
// node count, so a uint16 table needs at most 2¹⁶ − 1 nodes).
// core.OracleFromClustering, the only non-test caller, checks both on the
// whole quotient before it allocates a table: narrowCellsFit and the
// maxOracleClusters cap. Sums that could meet an unreachable cell run in 64
// bits, so the all-ones mark stays above every finite sum instead of
// wrapping below it.

// Cell is the width of a table's cells: uint32 distances or uint16 hop
// counts, the all-ones value of either marking an unreachable pair.
type Cell interface{ uint32 | uint16 }

// InfDist32 and InfHops mark the unreachable cells of a distance row and of
// a hop row: InfDist at the rows' own widths.
const (
	InfDist32 uint32 = math.MaxUint32
	InfHops   uint16 = math.MaxUint16
)

// APSPScratch is the reusable state of the kernels over one overlay: O(n)
// words. Once the search's heap has grown to its high-water mark, no kernel
// allocates (pinned by TestAPSPKernelsZeroAlloc). It is not safe for
// concurrent use; a parallel caller gives every goroutine its own.
type APSPScratch struct {
	ov *Overlay

	// The core search: an engine over the core, and its distances in core
	// ids.
	e    *bsp.WeightedEngine
	dist []int64

	// Row: the lifted seeds and the core cells, in core ids and 64 bits,
	// and one bit per eliminated node (by its index in the overlay's order)
	// for the lift's pending nodes.
	seeds, core []uint64
	pending     []uint64
}

// NewAPSPScratch sizes the kernels' scratch for o.
func (o *Overlay) NewAPSPScratch() *APSPScratch {
	c := o.core.NumNodes()
	return &APSPScratch{
		ov:      o,
		e:       bsp.NewWeightedEngine(o.core, 0, 0),
		dist:    make([]int64, c),
		seeds:   make([]uint64, c),
		core:    make([]uint64, c),
		pending: make([]uint64, (len(o.order)+63)/64),
	}
}

// CoreTable is the distance table of an overlay's core, C rows of C cells
// in core ids (Overlay.Core), in cells of width T. Its Rows rows are filled
// once (Fill), after which any number of goroutines may read it through Row.
type CoreTable[T Cell] struct {
	ov    *Overlay
	cells []T
}

// NewCoreTable allocates o's core table, every row still to be filled: C²
// cells, none when o took no level.
func NewCoreTable[T Cell](o *Overlay) *CoreTable[T] {
	t := &CoreTable[T]{ov: o}
	t.cells = make([]T, t.Rows()*t.Rows())
	return t
}

// Rows is how many rows Fill must write: one per core node, none when the
// overlay took no level.
func (t *CoreTable[T]) Rows() int {
	if t.ov.levels == 0 {
		return 0
	}
	return len(t.ov.ids)
}

// Fill writes row i < Rows of the table, the distances from core node i to
// every core node, by one search on the core (search); s must be the
// scratch of the table's overlay. Distinct rows may be filled concurrently,
// each with its own scratch. It returns the search's work (search).
func (t *CoreTable[T]) Fill(s *APSPScratch, i int) bsp.Stats {
	c := len(t.ov.ids)
	return search(s, i, t.cells[i*c:(i+1)*c])
}

// Row overwrites row (len NumNodes of the overlay's graph) with the
// shortest-path distances from src, all ones for unreachable nodes — what
// Dijkstra computes, cell for cell, under the preconditions in this file's
// header — from the filled table; s must be the scratch of the table's
// overlay. It returns the work done, as Relaxations the min-terms weighed:
// one per arc the lift follows out of a reached node, C per lifted seed (the
// core nodes reachable from src along kept arcs; a core source is its own
// seed, at 0), and one per kept arc for the sweep. Over an overlay that took
// no level, whose core is the graph, Row is one search from src and returns
// what Fill would.
func (t *CoreTable[T]) Row(s *APSPScratch, src NodeID, row []T) bsp.Stats {
	o, inf := t.ov, ^T(0)
	if o.levels == 0 {
		return search(s, int(src), row)
	}
	for i := range row {
		row[i] = inf
	}
	var terms int64
	seeds, core := s.seeds, s.core
	for i := range seeds {
		seeds[i], core[i] = uint64(inf), uint64(inf)
	}
	if p := o.pos[src]; p < 0 {
		seeds[-1-p] = 0
	} else {
		row[src] = 0
		terms = lift(s, int(p), row)
	}
	// A seed at or above the mark is no seed: the lift path it came by is
	// no shortest one, and a seed on the shortest path gives its cells.
	c := len(core)
	for i, sd := range seeds {
		if sd >= uint64(inf) {
			continue
		}
		terms += int64(c)
		for j, d := range t.cells[i*c : (i+1)*c] {
			core[j] = min(core[j], sd+uint64(d))
		}
	}
	for j, v := range o.ids {
		row[v] = T(core[j])
	}
	// Sweep: every kept arc leads to a later level or the core, final by
	// the time the arcs, taken last to first, come down to its level; one
	// flat pass over the arcs, with no loop per node whose exit would be
	// mispredicted node after node.
	from, to, w := o.from, o.to, o.w
	from, w = from[:len(to)], w[:len(to)]
	for j := len(to) - 1; j >= 0; j-- {
		x := from[j]
		row[x] = T(min(uint64(row[x]), uint64(row[to[j]])+uint64(w[j])))
	}
	return bsp.Stats{Relaxations: terms + int64(len(to))}
}

// lift relaxes the kept arcs out of every node reachable from order[from]
// along kept arcs, into row for eliminated nodes and into s.seeds for core
// ones, and returns the arcs relaxed. Kept arcs climb to later levels,
// which come later in order, so taking the pending nodes in order settles
// each before its arcs are read.
func lift[T Cell](s *APSPScratch, from int, row []T) (arcs int64) {
	o, seeds, pending := s.ov, s.seeds, s.pending
	pending[from>>6] |= 1 << (from & 63)
	for i := from >> 6; i < len(pending); i++ {
		for pending[i] != 0 {
			p := i<<6 + bits.TrailingZeros64(pending[i])
			pending[i] &= pending[i] - 1
			d := uint64(row[o.order[p]])
			lo, hi := o.arcs[p], o.arcs[p+1]
			arcs += int64(hi - lo)
			for j := lo; j < hi; j++ {
				u, nd := o.to[j], d+uint64(o.w[j])
				if q := o.pos[u]; q < 0 {
					seeds[-1-q] = min(seeds[-1-q], nd)
				} else if nd < uint64(row[u]) {
					row[u] = T(nd)
					pending[q>>6] |= 1 << (q & 63)
				}
			}
		}
	}
	return arcs
}

// search overwrites row (len the core's NumNodes, in its ids) with the
// distances from core node src, all ones for nodes it does not reach, by
// one bsp.WeightedEngine search on the overlay's core; over an overlay with
// no level the core is the graph itself. It returns one round with the
// engine's counters for the search: as Relaxations the arcs scanned (the
// degrees of the reached nodes: every node is settled once, so the count
// does not depend on any schedule), as Buckets the distinct finite
// distances settled.
func search[T Cell](s *APSPScratch, src int, row []T) bsp.Stats {
	before := s.e.Stats()
	s.e.SSSP(NodeID(src), s.dist)
	after := s.e.Stats()
	inf := int64(^T(0))
	for j, d := range s.dist {
		row[j] = T(min(d, inf)) // finite distances fit T; bsp.WInf becomes T's own mark
	}
	return bsp.Stats{Rounds: 1, Relaxations: after.Relaxations - before.Relaxations, Buckets: after.Buckets - before.Buckets}
}
