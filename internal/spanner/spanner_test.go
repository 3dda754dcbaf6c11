package spanner

import (
	"testing"

	"repro/internal/bsp"
	"repro/internal/graph"
	"repro/internal/rng"
)

func weightedFrom(g *graph.Graph, seed uint64, maxW int) *graph.Weighted {
	edges := g.EdgeList()
	r := rng.New(seed)
	ws := make([]int32, len(edges))
	for i := range ws {
		ws[i] = int32(1 + r.Intn(maxW))
	}
	return graph.MustWeighted(g.NumNodes(), edges, ws)
}

func checkStretch(t *testing.T, w, sp *graph.Weighted, k int, samples int) {
	t.Helper()
	n := w.NumNodes()
	r := rng.New(99)
	stretch := int64(2*k - 1)
	orig, span := make([]int64, n), make([]int64, n)
	origSSSP, spanSSSP := bsp.NewWeightedEngine(w, 1, 0), bsp.NewWeightedEngine(sp, 1, 0)
	for s := 0; s < samples; s++ {
		src := graph.NodeID(r.Intn(n))
		origSSSP.SSSP(src, orig)
		spanSSSP.SSSP(src, span)
		for v := 0; v < n; v++ {
			if orig[v] == graph.InfDist {
				if span[v] != graph.InfDist {
					t.Fatalf("spanner connected an unreachable pair (%d,%d)", src, v)
				}
				continue
			}
			if span[v] == graph.InfDist {
				t.Fatalf("spanner disconnected pair (%d,%d)", src, v)
			}
			if span[v] < orig[v] {
				t.Fatalf("spanner shortened (%d,%d): %d < %d — not a subgraph?", src, v, span[v], orig[v])
			}
			if span[v] > stretch*orig[v] {
				t.Fatalf("stretch violated for (%d,%d): %d > %d·%d", src, v, span[v], stretch, orig[v])
			}
		}
	}
}

func TestBaswanaSenStretchK2(t *testing.T) {
	g := graph.ErdosRenyi(120, 900, 3)
	g, _ = g.LargestComponent()
	w := weightedFrom(g, 4, 10)
	sp, err := BaswanaSen(w, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	checkStretch(t, w, sp, 2, 10)
}

func TestBaswanaSenStretchK3(t *testing.T) {
	g := graph.ErdosRenyi(150, 1500, 5)
	g, _ = g.LargestComponent()
	w := weightedFrom(g, 6, 10)
	sp, err := BaswanaSen(w, 3, 11)
	if err != nil {
		t.Fatal(err)
	}
	checkStretch(t, w, sp, 3, 10)
}

func TestBaswanaSenSparsifiesDenseGraph(t *testing.T) {
	// K_n with k=2: expect O(n^1.5) edges, far below the n²/2 input.
	g := graph.Complete(120)
	w := weightedFrom(g, 8, 5)
	sp, err := BaswanaSen(w, 2, 13)
	if err != nil {
		t.Fatal(err)
	}
	if sp.NumEdges() >= w.NumEdges()/2 {
		t.Fatalf("spanner has %d of %d edges — no sparsification", sp.NumEdges(), w.NumEdges())
	}
	checkStretch(t, w, sp, 2, 10)
}

func TestBaswanaSenSubgraph(t *testing.T) {
	g := graph.ErdosRenyi(60, 300, 9)
	w := weightedFrom(g, 10, 7)
	sp, err := BaswanaSen(w, 2, 17)
	if err != nil {
		t.Fatal(err)
	}
	// Every spanner edge must exist in the original with the same weight.
	for u := graph.NodeID(0); int(u) < sp.NumNodes(); u++ {
		nbrs, ws := sp.Neighbors(u)
		for i, v := range nbrs {
			onbrs, ows := w.Neighbors(u)
			found := false
			for j, ov := range onbrs {
				if ov == v && ows[j] == ws[i] {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("spanner edge (%d,%d,w=%d) not in original", u, v, ws[i])
			}
		}
	}
}

func TestBaswanaSenK1KeepsLightestPerPair(t *testing.T) {
	// k=1 means stretch 1: phase 2 alone runs and keeps the lightest edge
	// between every adjacent pair — i.e. the whole (deduplicated) graph.
	g := graph.Cycle(10)
	w := weightedFrom(g, 12, 4)
	sp, err := BaswanaSen(w, 1, 19)
	if err != nil {
		t.Fatal(err)
	}
	if sp.NumEdges() != w.NumEdges() {
		t.Fatalf("k=1 spanner has %d of %d edges", sp.NumEdges(), w.NumEdges())
	}
	checkStretch(t, w, sp, 1, 5)
}

func TestBaswanaSenErrorsAndEdgeCases(t *testing.T) {
	if _, err := BaswanaSen(graph.MustWeighted(3, nil, nil), 0, 1); err == nil {
		t.Fatal("k=0 should fail")
	}
	sp, err := BaswanaSen(graph.MustWeighted(0, nil, nil), 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if sp.NumNodes() != 0 {
		t.Fatal("empty graph spanner should be empty")
	}
	// Edgeless graph.
	sp, err = BaswanaSen(graph.MustWeighted(5, nil, nil), 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if sp.NumEdges() != 0 {
		t.Fatal("edgeless graph should stay edgeless")
	}
}

func TestBaswanaSenDeterministic(t *testing.T) {
	g := graph.ErdosRenyi(80, 400, 21)
	w := weightedFrom(g, 14, 6)
	a, err := BaswanaSen(w, 3, 23)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BaswanaSen(w, 3, 23)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumEdges() != b.NumEdges() {
		t.Fatal("same seed produced different spanners")
	}
}
