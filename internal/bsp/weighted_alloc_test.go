package bsp

// Internal test: the enforcer of WeightedEngine.SSSP's zero-allocation
// contract, on a topology that needs no graph import.

import "testing"

// gridTopo is a w×h 4-neighbor grid with unit-ish weights, enough edges
// to make a search do real work.
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

// TestWeightedSSSPZeroAlloc pins SSSP's zero-allocation contract: once one
// search has grown the radix heap's bins to their high-water mark, a
// repeat of it allocates nothing.
func TestWeightedSSSPZeroAlloc(t *testing.T) {
	topo := newGridTopo(64, 48)
	e := NewWeightedEngine(topo, 0, 0)
	dist := make([]int64, topo.NumNodes())
	e.SSSP(0, dist) // warm: bins at high water

	allocs := testing.AllocsPerRun(20, func() {
		e.SSSP(0, dist)
	})
	if allocs != 0 {
		t.Fatalf("SSSP allocated %.1f times per search, want 0", allocs)
	}
}
