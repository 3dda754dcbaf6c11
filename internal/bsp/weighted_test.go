package bsp_test

// External test package: importing graph here gives the weighted engine a
// real CSR topology; bellmanFord is the reference it is diffed against.

import (
	"math"
	"testing"

	"repro/internal/bsp"
	"repro/internal/graph"
	"repro/internal/rng"
)

// bellmanFord computes the shortest-path distances from src (graph.InfDist
// when unreachable) by relaxing every arc until none lowers a distance: no
// queue or heap to share a bug with the engine's.
func bellmanFord(g *graph.Weighted, src graph.NodeID) []int64 {
	dist := make([]int64, g.NumNodes())
	for i := range dist {
		dist[i] = graph.InfDist
	}
	dist[src] = 0
	for changed := true; changed; {
		changed = false
		for u, du := range dist {
			if du == graph.InfDist {
				continue
			}
			nbrs, ws := g.Neighbors(graph.NodeID(u))
			for j, v := range nbrs {
				if d := du + int64(ws[j]); d < dist[v] {
					dist[v], changed = d, true
				}
			}
		}
	}
	return dist
}

func randomWeightedGraph(t *testing.T, g *graph.Graph, seed uint64, maxW int) *graph.Weighted {
	t.Helper()
	r := rng.New(seed)
	return weightedBy(t, g, func() int32 { return int32(1 + r.Intn(maxW)) })
}

// weightedBy weights g's edges, in EdgeList order, with successive draws.
func weightedBy(t *testing.T, g *graph.Graph, draw func() int32) *graph.Weighted {
	t.Helper()
	edges := g.EdgeList()
	ws := make([]int32, len(edges))
	for i := range ws {
		ws[i] = draw()
	}
	wg, err := graph.NewWeighted(g.NumNodes(), edges, ws)
	if err != nil {
		t.Fatal(err)
	}
	return wg
}

// TestDeltaSSSPMatchesDijkstra is the core equivalence guarantee: the
// radix-heap search produces the shortest-path distances Dijkstra would,
// identical to a Bellman–Ford reference's, whatever the ignored workers and delta arguments
// say. The heavy-tailed row draws weights 2^0..2^20; the long road row
// draws them within 1000 of MaxInt32, so its distances pass 2^32 and the
// heap's high bins fill. The counters are pinned too: a label-setting
// search scans each reached node's arcs once and settles one bucket per
// distinct distance.
func TestDeltaSSSPMatchesDijkstra(t *testing.T) {
	r, wide := rng.New(13), rng.New(17)
	rows := map[string]*graph.Weighted{
		"mesh":   randomWeightedGraph(t, graph.Mesh(20, 20), 11, 20),
		"gnp":    randomWeightedGraph(t, graph.ErdosRenyi(600, 2400, 3), 11, 20),
		"social": randomWeightedGraph(t, graph.BarabasiAlbert(500, 4, 5), 11, 20),
		"road":   randomWeightedGraph(t, graph.RoadLike(15, 15, 0.4, 7), 11, 20),
		"gnp/heavyTailed": weightedBy(t, graph.ErdosRenyi(600, 2400, 3),
			func() int32 { return int32(1) << r.Intn(21) }),
		"road/nearMaxInt32": weightedBy(t, graph.RoadLike(40, 8, 0.4, 7),
			func() int32 { return math.MaxInt32 - int32(wide.Intn(1000)) }),
	}
	for name, wg := range rows {
		n := wg.NumNodes()
		srcs := []graph.NodeID{0, graph.NodeID(n / 2), graph.NodeID(n - 1)}
		for _, delta := range []int64{0, 1, 3, 25, 1 << 40} {
			for _, workers := range []int{1, 4, 8} {
				e := bsp.NewWeightedEngine(wg, workers, delta)
				dist := make([]int64, n)
				for _, src := range srcs {
					before := e.Stats()
					ecc := e.SSSP(src, dist)
					ref := bellmanFord(wg, src)
					var refEcc, arcs int64
					levels := map[int64]bool{}
					for u := range ref {
						if ref[u] != graph.InfDist && ref[u] > refEcc {
							refEcc = ref[u]
						}
						if ref[u] != graph.InfDist {
							nbrs, _ := wg.Neighbors(graph.NodeID(u))
							arcs += int64(len(nbrs))
							levels[ref[u]] = true
						}
						if dist[u] != ref[u] {
							t.Fatalf("%s delta=%d workers=%d src=%d: dist[%d]=%d want %d",
								name, delta, workers, src, u, dist[u], ref[u])
						}
					}
					if ecc != refEcc {
						t.Fatalf("%s delta=%d workers=%d src=%d: ecc=%d want %d",
							name, delta, workers, src, ecc, refEcc)
					}
					st := e.Stats()
					if got := st.Relaxations - before.Relaxations; got != arcs || st.Messages-before.Messages != arcs {
						t.Fatalf("%s src=%d: %d relaxations, want %d: one scan of every reached node's arcs",
							name, src, got, arcs)
					}
					if got := st.Buckets - before.Buckets; got != len(levels) || st.Rounds-before.Rounds != len(levels) {
						t.Fatalf("%s src=%d: %d buckets, want %d distinct distances", name, src, got, len(levels))
					}
				}
				e.Close()
			}
		}
	}
}

func TestDeltaSSSPUnreachable(t *testing.T) {
	// Two components: 0-1-2 and 3-4.
	wg, err := graph.NewWeighted(5,
		[][2]graph.NodeID{{0, 1}, {1, 2}, {3, 4}}, []int32{2, 3, 7})
	if err != nil {
		t.Fatal(err)
	}
	e := bsp.NewWeightedEngine(wg, 2, 0)
	defer e.Close()
	dist := make([]int64, 5)
	if ecc := e.SSSP(0, dist); ecc != 5 {
		t.Fatalf("ecc=%d want 5", ecc)
	}
	if dist[3] != bsp.WInf || dist[4] != bsp.WInf {
		t.Fatalf("other component should be WInf, got %d/%d", dist[3], dist[4])
	}
}

// TestDeltaSSSPStatsDeterministic checks that the weighted cost counters
// (relaxations, buckets, rounds) are non-zero and do not depend on the
// ignored workers argument, since the benchmark reports them as honest
// work measures and divides by them.
func TestDeltaSSSPStatsDeterministic(t *testing.T) {
	wg := randomWeightedGraph(t, graph.ErdosRenyi(800, 4000, 5), 3, 12)
	dist := make([]int64, wg.NumNodes())
	var ref bsp.Stats
	for i, workers := range []int{1, 4, 8} {
		e := bsp.NewWeightedEngine(wg, workers, 4)
		e.SSSP(0, dist)
		st := e.Stats()
		e.Close()
		if st.Relaxations == 0 || st.Buckets == 0 || st.Rounds == 0 {
			t.Fatalf("workers=%d: zero cost counters %+v", workers, st)
		}
		if i == 0 {
			ref = st
		} else if st != ref {
			t.Fatalf("workers=%d: stats %+v diverge from single-worker %+v", workers, st, ref)
		}
	}
}
