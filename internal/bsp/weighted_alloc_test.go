package bsp

// Internal test: the enforcer of relaxPhase's zero-allocation contract —
// a steady-state relaxation phase performs zero heap allocations once the
// pooled claim buffers have reached their high-water mark. Before PR 10
// every phase allocated two closures (the chunk body handed to forChunks
// and forChunks's own clearFrom); the phase-field restructuring is what
// this test protects.

import "testing"

// gridTopo is a w×h 4-neighbor grid with unit-ish weights, enough edges
// to make relaxation do real work.
type gridTopo struct {
	w, h int
	nbr  [][]NodeID
	ws   [][]int32
}

func newGridTopo(w, h int) *gridTopo {
	g := &gridTopo{w: w, h: h, nbr: make([][]NodeID, w*h), ws: make([][]int32, w*h)}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			u := y*w + x
			add := func(v int, wt int32) {
				g.nbr[u] = append(g.nbr[u], NodeID(v))
				g.ws[u] = append(g.ws[u], wt)
			}
			if x+1 < w {
				add(u+1, int32(1+(u%3)))
			}
			if x > 0 {
				add(u-1, int32(1+((u-1)%3)))
			}
			if y+1 < h {
				add(u+w, 2)
			}
			if y > 0 {
				add(u-w, 2)
			}
		}
	}
	return g
}

func (g *gridTopo) NumNodes() int                          { return g.w * g.h }
func (g *gridTopo) Neighbors(u NodeID) ([]NodeID, []int32) { return g.nbr[u], g.ws[u] }

func relaxPhaseAllocs(t *testing.T, workers, w, h int) {
	t.Helper()
	topo := newGridTopo(w, h)
	e := NewWeightedEngine(topo, workers, 2)
	defer e.Close()

	// Settle the whole graph so every slot holds its final word: the
	// measured phases then re-offer every light edge but lower nothing,
	// which is exactly the steady-state shape of a converged bucket.
	dist := make([]int64, topo.NumNodes())
	e.SSSP(0, dist)

	nodes := make([]NodeID, topo.NumNodes())
	for i := range nodes {
		nodes[i] = NodeID(i)
	}
	e.relaxPhase(nodes, nil, false) // warm: pool spun up, buffers at high water

	allocs := testing.AllocsPerRun(20, func() {
		e.relaxPhase(nodes, nil, false)
	})
	if allocs != 0 {
		t.Fatalf("relaxPhase allocated %.1f times per phase at %d workers, want 0", allocs, workers)
	}
}

func TestRelaxPhaseZeroAllocSequential(t *testing.T) {
	// Small enough to stay under seqThreshold: the inline relaxChunk path.
	relaxPhaseAllocs(t, 1, 16, 16)
}

func TestRelaxPhaseZeroAllocParallel(t *testing.T) {
	// Large enough to cross seqThreshold: the pool.Run fan-out path, with
	// the pre-built chunkWorker closure and lazily spun-up pool already
	// warm before measurement.
	relaxPhaseAllocs(t, 4, 64, 48)
}
