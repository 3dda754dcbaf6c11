package graph

import (
	"fmt"
	"testing"

	"repro/internal/bsp"
	"repro/internal/rng"
)

// weightedBy gives every edge of g a weight drawn by draw.
func weightedBy(g *Graph, draw func() int32) *Weighted {
	edges := g.EdgeList()
	ws := make([]int32, len(edges))
	for i := range ws {
		ws[i] = draw()
	}
	return MustWeighted(g.NumNodes(), edges, ws)
}

// The APSP kernels against the references they replace in the oracle
// build, cell for cell, on seeded random inputs from every generator family
// the oracle meets — with small weights (the quotient's own range) and with
// heavy-tailed ones up to 2²⁰, where consecutive settled distances lie far
// apart (at most 130 nodes, so every simple path stays below 2²⁸: inside
// NewOverlay's precondition): the search on the whole graph against
// Dijkstra, and the uint16 table rows of the graph with unit weights,
// through its overlay, against BFS. The narrow cells'
// unreachable marks map to the references' InfDist and −1. The returned
// counters are checked against their schedule-free definitions.
func TestAPSPKernelsMatchReferences(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		r := rng.New(seed)
		for _, shape := range []struct {
			name string
			g    *Graph
		}{
			{"mesh", Mesh(9, 8)},
			{"road", RoadLike(13, 10, 0.4, seed)},
			{"gnp", ErdosRenyi(64, 120, seed)}, // may itself be disconnected
			{"union", disjointUnion(3, Mesh(5, 5), ErdosRenyi(30, 45, seed), Path(9))},
		} {
			for _, weights := range []struct {
				name string
				draw func() int32
			}{
				{"uniform1to7", func() int32 { return int32(1 + r.Intn(7)) }},
				{"heavyTailed", func() int32 { return int32(1) << r.Intn(21) }},
			} {
				t.Run(fmt.Sprintf("%s/%s/seed%d", shape.name, weights.name, seed), func(t *testing.T) {
					checkAPSPKernels(t, weightedBy(shape.g, weights.draw))
				})
			}
		}
	}
}

func checkAPSPKernels(t *testing.T, wg *Weighted) {
	t.Helper()
	n := wg.NumNodes()
	s := uncontracted(wg).NewAPSPScratch()
	got, want := make([]uint32, n), make([]int64, n)
	for src := 0; src < n; src++ {
		wg.DijkstraInto(NodeID(src), want)
		st := sssp(s, NodeID(src), got)
		var wantArcs int64
		distinct := map[int64]bool{}
		for v, d := range want {
			g := int64(got[v])
			if got[v] == InfDist32 {
				g = InfDist
			}
			if g != d {
				t.Fatalf("SSSP(%d)[%d] = %d, Dijkstra says %d", src, v, got[v], d)
			}
			if d != InfDist {
				wantArcs += int64(wg.Degree(NodeID(v)))
				distinct[d] = true
			}
		}
		if st != (bsp.Stats{Rounds: 1, Relaxations: wantArcs, Buckets: len(distinct)}) {
			t.Fatalf("SSSP(%d) counted %+v; reached degrees sum to %d over %d distinct distances",
				src, st, wantArcs, len(distinct))
		}
	}
	unit := wg.Unit()
	checkTableRows[uint16](t, NewOverlay(unit), bfsTable(unit.Topology()))
}

// bfsTable is g's all-pairs hop table, row by row, InfDist when unreachable.
func bfsTable(g *Graph) []int64 {
	n := g.NumNodes()
	table := make([]int64, n*n)
	for src := range n {
		for v, h := range g.BFS(NodeID(src)) {
			table[src*n+v] = int64(h)
			if h < 0 {
				table[src*n+v] = InfDist
			}
		}
	}
	return table
}

// sourceList converts a list of node indices.
func sourceList(ids []int) []NodeID {
	srcs := make([]NodeID, len(ids))
	for i, c := range ids {
		srcs[i] = NodeID(c)
	}
	return srcs
}

// The oracle stores each quotient table once, as a lower triangle copied out
// of these kernels' rows, and answers (c, d) and (d, c) from the same cell.
// That is sound because the kernels are symmetric on an undirected graph:
// SSSP row c at d equals row d at c, and the table rows of a contracted
// overlay likewise, in both widths, unreachable marks included — on seeded
// weighted road-like, G(n,p) and disconnected union graphs.
func TestAPSPKernelsSymmetric(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		r := rng.New(seed)
		for _, shape := range []struct {
			name string
			g    *Graph
		}{
			{"road", RoadLike(13, 10, 0.4, seed)},
			{"gnp", ErdosRenyi(130, 200, seed)},
			{"union", disjointUnion(3, Mesh(5, 5), ErdosRenyi(30, 45, seed), Path(9))},
		} {
			wg := weightedBy(shape.g, func() int32 { return int32(1 + r.Intn(40)) })
			n := wg.NumNodes()
			s := uncontracted(wg).NewAPSPScratch()
			dist := make([]uint32, n*n)
			for src := 0; src < n; src++ {
				sssp(s, NodeID(src), dist[src*n:(src+1)*n])
			}
			wide := tableRows[uint32](NewOverlay(wg), n)
			hops := tableRows[uint16](NewOverlay(wg.Unit()), n)
			for c := 0; c < n; c++ {
				for d := c + 1; d < n; d++ {
					if dist[c*n+d] != dist[d*n+c] || wide[c*n+d] != wide[d*n+c] || hops[c*n+d] != hops[d*n+c] {
						t.Fatalf("%s seed %d: (%d,%d) = %d, %d / %d hops, (%d,%d) = %d, %d / %d hops", shape.name, seed,
							c, d, dist[c*n+d], wide[c*n+d], hops[c*n+d], d, c, dist[d*n+c], wide[d*n+c], hops[d*n+c])
					}
				}
			}
		}
	}
}

// tableRows is every row of ov's graph, n of them, from its filled core
// table in cells of width T.
func tableRows[T Cell](ov *Overlay, n int) []T {
	s, tab := ov.NewAPSPScratch(), NewCoreTable[T](ov)
	for i := range tab.Rows() {
		tab.Fill(s, i)
	}
	rows := make([]T, n*n)
	for src := range n {
		tab.Row(s, NodeID(src), rows[src*n:(src+1)*n])
	}
	return rows
}

// Warm, no kernel allocates: per-worker scratch is sized once, a core
// table's row is one search in it, a row's lift, table min-terms and sweep
// run in it, at both cell widths, and so does the search that is a whole
// row over an overlay with no level.
func TestAPSPKernelsZeroAlloc(t *testing.T) {
	r := rng.New(3)
	wg := weightedBy(RoadLike(12, 12, 0.4, 3), func() int32 { return int32(1 + r.Intn(40)) })
	n := wg.NumNodes()
	ov := NewOverlay(wg)
	if ov.Levels() < 2 {
		t.Fatalf("premise: %d levels, want a lift and a sweep over several", ov.Levels())
	}
	s := ov.NewAPSPScratch()
	_, ids := ov.Core()
	if ids[0] == 0 {
		t.Fatal("premise: node 0 is eliminated (the core's ids ascend)")
	}
	dist := NewCoreTable[uint32](ov)
	if allocs := testing.AllocsPerRun(20, func() { dist.Fill(s, len(ids)/2) }); allocs != 0 {
		t.Fatalf("Fill allocated %.1f times per core row, want 0", allocs)
	}
	for i := range ids {
		dist.Fill(s, i)
	}
	row := make([]uint32, n)
	for _, src := range []NodeID{0, ids[len(ids)/2]} { // an eliminated source and a core one
		if allocs := testing.AllocsPerRun(20, func() { dist.Row(s, src, row) }); allocs != 0 {
			t.Fatalf("Row(%d) allocated %.1f times per source, want 0", src, allocs)
		}
	}
	hov := NewOverlay(wg.Unit())
	hs, hops := hov.NewAPSPScratch(), NewCoreTable[uint16](hov)
	for i := range hops.Rows() {
		hops.Fill(hs, i)
	}
	hrow := make([]uint16, n)
	if allocs := testing.AllocsPerRun(20, func() { hops.Row(hs, 0, hrow) }); allocs != 0 {
		t.Fatalf("hop Row allocated %.1f times per source, want 0", allocs)
	}
	flat := NewCoreTable[uint32](uncontracted(wg))
	fs := flat.ov.NewAPSPScratch()
	if allocs := testing.AllocsPerRun(20, func() { flat.Row(fs, 0, row) }); allocs != 0 {
		t.Fatalf("Row over an overlay with no level allocated %.1f times per search, want 0", allocs)
	}
}

// uncontracted is g's overlay with no level, as NewOverlay leaves a graph
// whose first level would not lower the edge count: its core is g itself,
// so its search runs on g.
func uncontracted(g *Weighted) *Overlay {
	o := &Overlay{g: g, core: g, arcs: []int32{0}, pos: make([]int32, g.NumNodes())}
	for v := range o.pos {
		o.ids = append(o.ids, NodeID(v))
		o.pos[v] = -1 - int32(v)
	}
	return o
}

// sssp is the search from src over an uncontracted overlay's scratch.
func sssp(s *APSPScratch, src NodeID, dist []uint32) bsp.Stats {
	return search(s, int(src), dist)
}
