package graph

import (
	"fmt"
	"testing"
	"time"

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

// The two APSP kernels against the references they replace in the oracle
// build, cell for cell, on seeded random inputs from every generator family
// the oracle meets — with small weights (the quotient's own range) and with
// heavy-tailed ones up to 2²⁰, where consecutive settled distances lie
// thousands of ring words apart (at most 130 nodes, so every distance plus
// an arc stays below 2²⁸: inside the kernels' 2³¹ precondition). The narrow
// cells' unreachable marks map to the references' InfDist and −1. The
// returned counters are checked against their schedule-free definitions.
func TestAPSPKernelsMatchReferences(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		r := rng.New(seed)
		for _, shape := range []struct {
			name string
			g    *Graph
		}{
			{"mesh", Mesh(9, 8)},                  // 72 nodes: a full block and a ragged one
			{"road", RoadLike(13, 10, 0.4, seed)}, // 130 nodes: the last block holds two sources
			{"gnp", ErdosRenyi(64, 120, seed)},    // exactly one block; may itself be disconnected
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
	q := wg.Topology()
	s := wg.NewAPSPScratch()
	got, want := make([]uint32, n), make([]int64, n)
	for src := 0; src < n; src++ {
		wg.DijkstraInto(NodeID(src), want)
		arcs, buckets := s.SSSP(NodeID(src), got)
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
		if arcs != wantArcs || buckets != len(distinct) {
			t.Fatalf("SSSP(%d) counted %d arcs, %d buckets; reached degrees sum to %d over %d distinct distances",
				src, arcs, buckets, wantArcs, len(distinct))
		}
	}
	// HopRows takes any list of distinct sources: the consecutive blocks,
	// and lists of 1, 63 and 64 sources in random order, as the oracle's
	// searches outside an independent set hand over.
	var lists [][]NodeID
	for lo := 0; lo < n; lo += APSPBlock {
		lists = append(lists, sourceRange(lo, min(lo+APSPBlock, n)))
	}
	r := rng.New(uint64(n))
	for _, size := range []int{1, 63, 64} {
		if size <= n {
			lists = append(lists, sourceList(r.Perm(n)[:size]))
		}
	}
	rows := make([]uint16, APSPBlock*n)
	for _, srcs := range lists {
		for i := range rows {
			rows[i] = InfHops - 7 // neither a hop count nor the sentinel: HopRows must overwrite every cell of its rows
		}
		sweeps := s.HopRows(srcs, rows[:len(srcs)*n])
		wantSweeps := 0
		for i, src := range srcs {
			for v, h := range q.BFS(src) {
				wantHop := uint16(h)
				if h < 0 {
					wantHop = InfHops
				}
				wantSweeps = max(wantSweeps, int(h))
				if g := rows[i*n+v]; g != wantHop {
					t.Fatalf("HopRows%v: hops(%d,%d) = %d, BFS says %d", srcs, src, v, g, wantHop)
				}
			}
		}
		if sweeps != wantSweeps {
			t.Fatalf("HopRows%v ran %d sweeps, largest hop eccentricity is %d", srcs, sweeps, wantSweeps)
		}
	}
}

// sourceRange lists the sources lo … hi−1.
func sourceRange(lo, hi int) []NodeID {
	srcs := make([]NodeID, 0, hi-lo)
	for c := lo; c < hi; c++ {
		srcs = append(srcs, NodeID(c))
	}
	return srcs
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
// That is sound because both kernels are symmetric on an undirected graph:
// SSSP row c at d equals row d at c, and HopRows' rows likewise, unreachable
// marks included — on seeded weighted road-like, G(n,p) and disconnected
// union graphs, with ragged last blocks.
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
			s := wg.NewAPSPScratch()
			dist, hops := make([]uint32, n*n), make([]uint16, n*n)
			for src := 0; src < n; src++ {
				s.SSSP(NodeID(src), dist[src*n:(src+1)*n])
			}
			for lo := 0; lo < n; lo += APSPBlock {
				hi := min(lo+APSPBlock, n)
				s.HopRows(sourceRange(lo, hi), hops[lo*n:hi*n])
			}
			for c := 0; c < n; c++ {
				for d := c + 1; d < n; d++ {
					if dist[c*n+d] != dist[d*n+c] || hops[c*n+d] != hops[d*n+c] {
						t.Fatalf("%s seed %d: (%d,%d) = %d / %d hops, (%d,%d) = %d / %d hops", shape.name, seed,
							c, d, dist[c*n+d], hops[c*n+d], d, c, dist[d*n+c], hops[d*n+c])
					}
				}
			}
		}
	}
}

// The occupancy bitmap is what keeps a source's cost at O(arcs + n + D/64)
// for weighted eccentricity D: probing the ring slot by slot is Θ(D), which
// on this input — a sparse road-like graph whose edges weigh up to 2²⁰ — is
// more than a billion probes over all sources. The premise is asserted, so
// the deadline means what it says; with the word-at-a-time skip the whole
// table takes a few tens of milliseconds.
func TestAPSPHeavyWeightsSkipEmptyBuckets(t *testing.T) {
	r := rng.New(7)
	wg := weightedBy(RoadLike(16, 16, 0.1, 7), func() int32 { return int32(1) << r.Intn(21) })
	n := wg.NumNodes()
	s := wg.NewAPSPScratch()
	dist := make([]uint32, n)
	var slotsCrossed int64
	start := time.Now()
	for src := 0; src < n; src++ {
		s.SSSP(NodeID(src), dist)
		var ecc uint32
		for _, d := range dist {
			if d != InfDist32 {
				ecc = max(ecc, d)
			}
		}
		slotsCrossed += int64(ecc)
	}
	elapsed := time.Since(start)
	if slotsCrossed < 1e9 {
		t.Fatalf("input too light to tell: only %d ring slots crossed in %v", slotsCrossed, elapsed)
	}
	if elapsed > time.Second {
		t.Fatalf("%d sources over %d ring slots took %v: empty buckets are not being skipped", n, slotsCrossed, elapsed)
	}
}

// Warm, neither kernel allocates: per-worker scratch is sized once, and
// HopRows reads its source list in place.
func TestAPSPKernelsZeroAlloc(t *testing.T) {
	r := rng.New(3)
	wg := weightedBy(RoadLike(12, 12, 0.4, 3), func() int32 { return int32(1 + r.Intn(40)) })
	n := wg.NumNodes()
	s := wg.NewAPSPScratch()
	dist := make([]uint32, n)
	rows := make([]uint16, APSPBlock*n)
	srcs := sourceList(rng.New(4).Perm(n)[:APSPBlock])
	if allocs := testing.AllocsPerRun(20, func() { s.SSSP(5, dist) }); allocs != 0 {
		t.Fatalf("SSSP allocated %.1f times per source, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(20, func() { s.HopRows(srcs, rows) }); allocs != 0 {
		t.Fatalf("HopRows allocated %.1f times per list of 64 sources, want 0", allocs)
	}
}
