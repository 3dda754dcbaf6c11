package bsp_test

// External test package: importing graph here is fine (graph itself imports
// bsp), and it gives the delta-stepping engine a real CSR topology plus the
// sequential Dijkstra reference to diff against.

import (
	"testing"

	"repro/internal/bsp"
	"repro/internal/graph"
	"repro/internal/rng"
)

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

// TestDeltaSSSPMatchesDijkstra is the core equivalence guarantee: for every
// bucket width and worker count, delta-stepping produces distances
// identical to the sequential Dijkstra reference. The heavy-tailed row
// draws weights 2^0..2^20, so most arcs reach far past every bucket width
// but the widest.
func TestDeltaSSSPMatchesDijkstra(t *testing.T) {
	r := rng.New(13)
	rows := map[string]*graph.Weighted{
		"mesh":   randomWeightedGraph(t, graph.Mesh(20, 20), 11, 20),
		"gnp":    randomWeightedGraph(t, graph.ErdosRenyi(600, 2400, 3), 11, 20),
		"social": randomWeightedGraph(t, graph.BarabasiAlbert(500, 4, 5), 11, 20),
		"road":   randomWeightedGraph(t, graph.RoadLike(15, 15, 0.4, 7), 11, 20),
		"gnp/heavyTailed": weightedBy(t, graph.ErdosRenyi(600, 2400, 3),
			func() int32 { return int32(1) << r.Intn(21) }),
	}
	for name, wg := range rows {
		n := wg.NumNodes()
		srcs := []graph.NodeID{0, graph.NodeID(n / 2), graph.NodeID(n - 1)}
		for _, delta := range []int64{0, 1, 3, 25, 1 << 40} {
			for _, workers := range []int{1, 4, 8} {
				e := bsp.NewWeightedEngine(wg, workers, delta)
				dist := make([]int64, n)
				for _, src := range srcs {
					ecc := e.SSSP(src, dist)
					ref := wg.Dijkstra(src)
					var refEcc int64
					for u := range ref {
						if ref[u] != graph.InfDist && ref[u] > refEcc {
							refEcc = ref[u]
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
// (relaxations, buckets, phases) are themselves schedule-independent, since
// the serve layer and benchmarks report them as honest work measures.
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

// TestWeightedEngineGrowVoronoi: a fully drained multi-source growth is the
// weighted Voronoi partition of its sources — every node ends with its true
// shortest distance to the nearest source, ties broken to the smaller
// owner id — regardless of delta or worker count. The bucket width is pure
// scheduling: from the automatic choice (0) through unit buckets to one
// bucket holding everything (2⁴⁰), only the cost counters move.
func TestWeightedEngineGrowVoronoi(t *testing.T) {
	wg := randomWeightedGraph(t, graph.Mesh(15, 15), 19, 9)
	n := wg.NumNodes()
	sources := []graph.NodeID{3, 77, 140, 220}
	refDist := make([][]int64, len(sources))
	for i, s := range sources {
		refDist[i] = wg.Dijkstra(s)
	}
	for _, delta := range []int64{0, 1, 2, 5, 16, 1 << 40} {
		for _, workers := range []int{1, 4} {
			e := bsp.NewWeightedEngine(wg, workers, delta)
			e.GrowInit()
			for i, s := range sources {
				e.AddSource(s, graph.NodeID(i))
			}
			for {
				ok, err := e.ProcessBucket()
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					break
				}
			}
			dist := make([]int64, n)
			owner := make([]graph.NodeID, n)
			e.Extract(dist, owner)
			for u := 0; u < n; u++ {
				bestD, bestO := int64(1)<<62, graph.NodeID(-1)
				for i := range sources {
					if refDist[i][u] < bestD {
						bestD, bestO = refDist[i][u], graph.NodeID(i)
					}
				}
				if dist[u] != bestD || owner[u] != bestO {
					t.Fatalf("delta=%d workers=%d node %d: got (%d,%d) want (%d,%d)",
						delta, workers, u, dist[u], owner[u], bestD, bestO)
				}
			}
			if st := e.Stats(); st.Relaxations == 0 || st.Buckets == 0 {
				t.Fatalf("delta=%d workers=%d: missing weighted cost counters %+v", delta, workers, st)
			}
			e.Close()
		}
	}
}

// TestWeightedEngineParallelRelax drives the relaxation phases where they
// fan out over the pool and lower claim words concurrently: the graph is
// wide enough that its phases pass seqThreshold, at four workers. The
// smaller graphs above relax inline, so this is the test that gives the
// race detector relaxChunk's casLower and updBits.SetAtomic, and that
// checks the parallel path against its references: Dijkstra for SSSP at
// the automatic and the one-bucket width, and the workers = 1 twin, node
// for node and counter for counter, for a drained multi-source growth
// whose sources arrive between buckets.
func TestWeightedEngineParallelRelax(t *testing.T) {
	wg := randomWeightedGraph(t, graph.ErdosRenyi(20000, 80000, 9), 5, 20)
	n := wg.NumNodes()
	ref := wg.Dijkstra(0)
	dist := make([]int64, n)
	for _, delta := range []int64{0, 1 << 40} {
		e := bsp.NewWeightedEngine(wg, 4, delta)
		e.SSSP(0, dist)
		e.Close()
		for u := range ref {
			if dist[u] != ref[u] {
				t.Fatalf("delta=%d: dist[%d]=%d want %d", delta, u, dist[u], ref[u])
			}
		}
	}

	grow := func(workers int) ([]int64, []graph.NodeID, bsp.Stats) {
		e := bsp.NewWeightedEngine(wg, workers, 0)
		defer e.Close()
		e.GrowInit()
		for i := 0; i < 8; i++ {
			e.AddSource(graph.NodeID(i*n/8), graph.NodeID(i))
			if _, err := e.ProcessBucket(); err != nil {
				t.Fatal(err)
			}
		}
		for {
			ok, err := e.ProcessBucket()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
		}
		dist, owner := make([]int64, n), make([]graph.NodeID, n)
		e.Extract(dist, owner)
		return dist, owner, e.Stats()
	}
	d1, o1, s1 := grow(1)
	d4, o4, s4 := grow(4)
	for u := 0; u < n; u++ {
		if d4[u] != d1[u] || o4[u] != o1[u] {
			t.Fatalf("node %d: workers=4 (%d,%d), workers=1 (%d,%d)", u, d4[u], o4[u], d1[u], o1[u])
		}
	}
	if s4 != s1 {
		t.Fatalf("stats diverge: workers=4 %+v, workers=1 %+v", s4, s1)
	}
	if s1.MaxFrontier < bsp.SeqThreshold {
		t.Fatalf("largest phase %d nodes: the relaxation never fanned out", s1.MaxFrontier)
	}
}

// TestWeightedEngineGrowOverflow: packed 31-bit distances must fail loudly,
// not wrap around.
func TestWeightedEngineGrowOverflow(t *testing.T) {
	// A path of three maximal edges overflows 2^31-1 after two hops.
	w := int32(1<<31 - 1)
	wg, err := graph.NewWeighted(4,
		[][2]graph.NodeID{{0, 1}, {1, 2}, {2, 3}}, []int32{w, w, w})
	if err != nil {
		t.Fatal(err)
	}
	e := bsp.NewWeightedEngine(wg, 1, 0)
	defer e.Close()
	e.GrowInit()
	e.AddSource(0, 0)
	var sawErr bool
	for {
		ok, err := e.ProcessBucket()
		if err != nil {
			sawErr = true
			break
		}
		if !ok {
			break
		}
	}
	if !sawErr {
		t.Fatal("expected ErrDistOverflow")
	}
}
