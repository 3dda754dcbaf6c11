package core

import (
	"testing"

	"repro/internal/bsp"
	"repro/internal/graph"
	"repro/internal/rng"
)

func randomWeighted(t *testing.T, g *graph.Graph, seed uint64, maxW int) *graph.Weighted {
	t.Helper()
	edges := g.EdgeList()
	r := rng.New(seed)
	ws := make([]int32, len(edges))
	for i := range ws {
		ws[i] = int32(1 + r.Intn(maxW))
	}
	return graph.MustWeighted(g.NumNodes(), edges, ws)
}

func TestWeightedClusterPartitionValid(t *testing.T) {
	for name, g := range map[string]*graph.Graph{
		"mesh":   graph.Mesh(30, 30),
		"road":   graph.RoadLike(25, 25, 0.4, 2),
		"social": graph.BarabasiAlbert(1500, 4, 3),
	} {
		wg := randomWeighted(t, g, 7, 9)
		wc, err := WeightedCluster(wg, 4, Options{Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := wc.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestWeightedClusterErrors(t *testing.T) {
	wg := randomWeighted(t, graph.Path(5), 1, 3)
	if _, err := WeightedCluster(wg, 0, Options{}); err == nil {
		t.Fatal("tau=0 should fail")
	}
	if _, err := WeightedCluster(graph.MustWeighted(0, nil, nil), 1, Options{}); err == nil {
		t.Fatal("empty graph should fail")
	}
}

func TestWeightedClusterWDistUpperBoundsTrueDistance(t *testing.T) {
	g := graph.Mesh(20, 20)
	wg := randomWeighted(t, g, 9, 5)
	wc, err := WeightedCluster(wg, 4, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	// WDist records the length of an actual growth path, hence an upper
	// bound on the true weighted distance to the center.
	for c, center := range wc.Centers {
		dist := wg.Dijkstra(center)
		for u := 0; u < wg.NumNodes(); u++ {
			if wc.Owner[u] == graph.NodeID(c) && wc.WDist[u] < dist[u] {
				t.Fatalf("WDist[%d]=%d below true %d", u, wc.WDist[u], dist[u])
			}
		}
	}
}

func TestWeightedClusterHopRadiusBoundsDepth(t *testing.T) {
	g := graph.RoadLike(25, 25, 0.4, 5)
	wg := randomWeighted(t, g, 11, 4)
	wc, err := WeightedCluster(wg, 8, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// The parallel depth is the number of growth rounds, which dominates
	// every cluster's hop radius.
	if int(wc.MaxHopRadius()) > wc.GrowthSteps {
		t.Fatalf("hop radius %d exceeds growth steps %d", wc.MaxHopRadius(), wc.GrowthSteps)
	}
}

func TestWeightedClusterUnitWeightsMatchShape(t *testing.T) {
	// With unit weights the weighted decomposition behaves like CLUSTER:
	// hop and weighted radii coincide.
	g := graph.Mesh(25, 25)
	edges := g.EdgeList()
	ws := make([]int32, len(edges))
	for i := range ws {
		ws[i] = 1
	}
	wg := graph.MustWeighted(g.NumNodes(), edges, ws)
	wc, err := WeightedCluster(wg, 4, Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if int64(wc.MaxHopRadius()) != wc.MaxWeightedRadius() {
		t.Fatalf("unit weights: hop radius %d != weighted radius %d",
			wc.MaxHopRadius(), wc.MaxWeightedRadius())
	}
}

func TestWeightedClusterDeterministic(t *testing.T) {
	// The delta-stepping growth must be bit-for-bit identical across worker
	// counts: same centers, same owners, same distances, same radii. Only
	// "wide" has buckets past the engine's sequential threshold, so only it
	// compares the pooled relaxation path with the inline one.
	for name, g := range map[string]*graph.Graph{
		"mesh":   graph.Mesh(20, 20),
		"social": graph.BarabasiAlbert(1200, 4, 17),
		"wide":   graph.BarabasiAlbert(20000, 4, 17),
	} {
		wg := randomWeighted(t, g, 13, 6)
		a, err := WeightedCluster(wg, 4, Options{Seed: 5, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{4, 8} {
			b, err := WeightedCluster(wg, 4, Options{Seed: 5, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if a.NumClusters() != b.NumClusters() {
				t.Fatalf("%s: %d workers changed the cluster count %d -> %d",
					name, workers, a.NumClusters(), b.NumClusters())
			}
			for c := range a.Centers {
				if a.Centers[c] != b.Centers[c] || a.WRadii[c] != b.WRadii[c] || a.HopRadii[c] != b.HopRadii[c] {
					t.Fatalf("%s: cluster %d diverged at %d workers", name, c, workers)
				}
			}
			for u := range a.Owner {
				if a.Owner[u] != b.Owner[u] || a.WDist[u] != b.WDist[u] || a.HopDist[u] != b.HopDist[u] {
					t.Fatalf("%s: node %d diverged at %d workers (claims are min-reduced deterministically)",
						name, u, workers)
				}
			}
		}
	}
}

func TestWeightedClusterDeltaSweep(t *testing.T) {
	// WeightedCluster always takes the engine's automatic bucket width. The
	// width is a pure scheduling knob, so regrowing from the clustering's
	// centers at any explicit delta must land on the same per-node WDist
	// (the Voronoi distance is unique even where owner ties break apart).
	g := graph.RoadLike(20, 20, 0.4, 3)
	wg := randomWeighted(t, g, 21, 8)
	wc, err := WeightedCluster(wg, 4, Options{Seed: 8, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := wc.Validate(); err != nil {
		t.Fatal(err)
	}
	if wc.Stats.Relaxations == 0 || wc.Stats.Buckets == 0 {
		t.Fatalf("missing weighted cost counters %+v", wc.Stats)
	}
	n := wg.NumNodes()
	dist := make([]int64, n)
	owner := make([]graph.NodeID, n)
	for _, delta := range []int64{1, 2, 16, 1 << 40} {
		e := bsp.NewWeightedEngine(wg, 4, delta)
		e.GrowInit()
		for c, center := range wc.Centers {
			e.AddSource(center, graph.NodeID(c))
		}
		for {
			ok, err := e.ProcessBucket()
			if err != nil {
				t.Fatalf("delta=%d: %v", delta, err)
			}
			if !ok {
				break
			}
		}
		e.Extract(dist, owner)
		if st := e.Stats(); st.Relaxations == 0 || st.Buckets == 0 {
			t.Fatalf("delta=%d: missing weighted cost counters %+v", delta, st)
		}
		e.Close()
		for u := 0; u < n; u++ {
			if dist[u] != wc.WDist[u] {
				t.Fatalf("delta=%d node %d: regrown distance %d, WeightedCluster WDist %d",
					delta, u, dist[u], wc.WDist[u])
			}
		}
	}
}

func TestWeightedClusterWDistIsExactVoronoi(t *testing.T) {
	// After the drain, every node's WDist is its true shortest distance to
	// the center that owns it, and no other center is strictly closer.
	g := graph.Mesh(18, 18)
	wg := randomWeighted(t, g, 23, 7)
	wc, err := WeightedCluster(wg, 4, Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	n := wg.NumNodes()
	best := make([]int64, n)
	for i := range best {
		best[i] = graph.InfDist
	}
	for _, center := range wc.Centers {
		dist := wg.Dijkstra(center)
		for u := 0; u < n; u++ {
			if dist[u] < best[u] {
				best[u] = dist[u]
			}
		}
	}
	for u := 0; u < n; u++ {
		if wc.WDist[u] != best[u] {
			t.Fatalf("node %d: WDist %d, nearest activated center at %d", u, wc.WDist[u], best[u])
		}
	}
}

func TestApproxDiameterWeightedUpperBound(t *testing.T) {
	for name, g := range map[string]*graph.Graph{
		"mesh": graph.Mesh(25, 25),
		"road": graph.RoadLike(20, 20, 0.4, 6),
	} {
		wg := randomWeighted(t, g, 15, 7)
		res, err := ApproxDiameterWeighted(wg, 4, Options{Seed: 6})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		truth, exact := wg.ExactDiameterWeighted(0)
		if !exact {
			t.Fatalf("%s: truth not certified", name)
		}
		if res.Upper < truth {
			t.Errorf("%s: upper %d below true weighted diameter %d", name, res.Upper, truth)
		}
		// Sanity on looseness: within a generous constant at this scale.
		if res.Upper > 6*truth {
			t.Errorf("%s: upper %d too loose vs %d", name, res.Upper, truth)
		}
	}
}

func TestApproxDiameterWeightedUnitMatchesUnweightedPipeline(t *testing.T) {
	g := graph.Mesh(20, 20)
	edges := g.EdgeList()
	ws := make([]int32, len(edges))
	for i := range ws {
		ws[i] = 1
	}
	wg := graph.MustWeighted(g.NumNodes(), edges, ws)
	res, err := ApproxDiameterWeighted(wg, 4, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	truth, _ := g.ExactDiameter(0)
	if res.Upper < int64(truth) {
		t.Fatalf("unit-weight upper %d below %d", res.Upper, truth)
	}
	if res.Upper > 3*int64(truth) {
		t.Fatalf("unit-weight upper %d too loose vs %d", res.Upper, truth)
	}
}

// Quotient edge weights are int32. A crossing that fits must be carried at
// its true length — the 3-node path below was once clamped DOWN to 2³⁰ per
// edge, which shortened the quotient path and put the "certified" Upper
// below the true diameter. (A crossing that does not fit is an error, never
// a shorter edge: quotient's TestAccumulatorRejectsWeightBeyondInt32.)
func TestApproxDiameterWeightedNeverShortensQuotientEdges(t *testing.T) {
	const w = 1<<30 + 5
	path := graph.MustWeighted(3, [][2]graph.NodeID{{0, 1}, {1, 2}}, []int32{w, w})
	res, err := ApproxDiameterWeighted(path, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if truth := path.DiameterExhaustiveWeighted(); truth != 2*w || res.Upper < truth {
		t.Fatalf("Upper %d below the true diameter %d", res.Upper, truth)
	}
}
