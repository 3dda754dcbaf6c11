package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"repro/internal/bsp"
	"repro/internal/graph"
	"repro/internal/quotient"
	"repro/internal/rng"
)

func TestOracleUpperBoundsTrueDistance(t *testing.T) {
	for name, g := range map[string]*graph.Graph{
		"mesh":   graph.Mesh(30, 30),
		"social": graph.BarabasiAlbert(1500, 3, 2),
		"road":   graph.RoadLike(25, 25, 0.4, 3),
	} {
		o, err := BuildOracle(context.Background(), g, 2, false, Options{Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		assertCellsWithinBound(t, o)
		r := rng.New(42)
		n := g.NumNodes()
		for trial := 0; trial < 30; trial++ {
			u := graph.NodeID(r.Intn(n))
			dist := g.BFS(u)
			v := graph.NodeID(r.Intn(n))
			est := o.Query(u, v)
			if est < int64(dist[v]) {
				t.Fatalf("%s: oracle %d below true distance %d for (%d,%d)", name, est, dist[v], u, v)
			}
		}
	}
}

func TestOracleApproximationQuality(t *testing.T) {
	// d'(u,v) = O(d(u,v)·log³n + R_ALG2): check a generous concrete version
	// of that bound on a mesh.
	g := graph.Mesh(40, 40)
	o, err := BuildOracle(context.Background(), g, 2, false, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	assertCellsWithinBound(t, o)
	rMax := int64(o.Clustering().MaxRadius())
	r := rng.New(7)
	n := g.NumNodes()
	for trial := 0; trial < 20; trial++ {
		u := graph.NodeID(r.Intn(n))
		v := graph.NodeID(r.Intn(n))
		d := int64(g.BFS(u)[v])
		est := o.Query(u, v)
		if est > 12*d+4*rMax+4 {
			t.Fatalf("oracle %d too far above true %d (R=%d)", est, d, rMax)
		}
	}
}

func TestOracleIdentityAndSymmetry(t *testing.T) {
	g := graph.Mesh(20, 20)
	o, err := BuildOracle(context.Background(), g, 2, false, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	assertCellsWithinBound(t, o)
	r := rng.New(9)
	for trial := 0; trial < 50; trial++ {
		u := graph.NodeID(r.Intn(g.NumNodes()))
		v := graph.NodeID(r.Intn(g.NumNodes()))
		if o.Query(u, u) != 0 {
			t.Fatal("Query(u,u) != 0")
		}
		if o.Query(u, v) != o.Query(v, u) {
			t.Fatalf("asymmetric oracle: (%d,%d)", u, v)
		}
	}
}

func TestOracleDisconnected(t *testing.T) {
	b := graph.NewBuilder(20)
	for i := 0; i < 9; i++ {
		b.AddEdge(graph.NodeID(i), graph.NodeID(i+1))
	}
	for i := 10; i < 19; i++ {
		b.AddEdge(graph.NodeID(i), graph.NodeID(i+1))
	}
	g := b.Build()
	o, err := BuildOracle(context.Background(), g, 2, false, Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	assertCellsWithinBound(t, o)
	if o.Query(0, 15) != graph.InfDist {
		t.Fatal("cross-component query should be InfDist")
	}
	if o.Query(0, 5) == graph.InfDist {
		t.Fatal("same-component query should be finite")
	}
}

func TestOracleCluster2Variant(t *testing.T) {
	g := graph.Mesh(25, 25)
	o, err := BuildOracle(context.Background(), g, 2, true, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	assertCellsWithinBound(t, o)
	d := int64(g.BFS(0)[g.NumNodes()-1])
	if est := o.Query(0, graph.NodeID(g.NumNodes()-1)); est < d {
		t.Fatalf("cluster2 oracle below true distance: %d < %d", est, d)
	}
}

func TestOracleCapEnforced(t *testing.T) {
	// A path with tau forcing every node into its own cluster exceeds the
	// APSP cap.
	g := graph.Path(maxOracleClusters + 10)
	cl := &Clustering{
		G:       g,
		Owner:   make([]graph.NodeID, g.NumNodes()),
		Dist:    make([]int32, g.NumNodes()),
		Centers: make([]graph.NodeID, g.NumNodes()),
		Radii:   make([]int32, g.NumNodes()),
	}
	for i := range cl.Owner {
		cl.Owner[i] = graph.NodeID(i)
		cl.Centers[i] = graph.NodeID(i)
	}
	if _, err := OracleFromClustering(context.Background(), cl, Options{}); err == nil {
		t.Fatal("oracle cap should reject huge quotient graphs")
	}
}

// assertCellsWithinBound checks the range argument behind the narrow cells
// on a built oracle: a finite quotient distance is a simple path over
// distinct clusters, so at most 2·ΣRadii + k − 1, and a finite hop count is
// below k. Both tables are strict lower triangles of k(k−1)/2 cells, row d
// holding the cells (d, 0 … d−1).
func assertCellsWithinBound(t *testing.T, o *Oracle) {
	t.Helper()
	k := o.NumClusters()
	bound := int64(k) - 1
	for _, r := range o.Clustering().Radii {
		bound += 2 * int64(r)
	}
	apsp, hops := o.Tables()
	if len(apsp) != k*(k-1)/2 || len(hops) != k*(k-1)/2 {
		t.Fatalf("%d clusters: %d distance and %d hop cells, want %d each", k, len(apsp), len(hops), k*(k-1)/2)
	}
	for d := 1; d < k; d++ {
		for c := 0; c < d; c++ {
			i := d*(d-1)/2 + c
			if dist, h := apsp[i], hops[i]; (dist == graph.InfDist32) != (h == graph.InfHops) {
				t.Fatalf("cell (%d,%d): distance %d and hops %d disagree on reachability", d, c, dist, h)
			} else if dist != graph.InfDist32 && (int64(dist) > bound || int(h) >= k) {
				t.Fatalf("cell (%d,%d): distance %d, %d hops; the bounds are %d and %d", d, c, dist, h, bound, k-1)
			}
		}
	}
}

// The range guard, at both sides of 2³¹, and the build refusing — before it
// allocates a table — a decomposition that fails it.
func TestNarrowCellsFit(t *testing.T) {
	radii := []int32{1 << 29, 1<<29 - 2} // 2·Σ + k = 2³¹ − 2
	if !narrowCellsFit(radii, 1) {
		t.Fatal("bound 2³¹ − 1 refused")
	}
	if narrowCellsFit(radii, 2) {
		t.Fatal("bound 2³¹ accepted")
	}
	if !narrowCellsFit(nil, 0) || narrowCellsFit(make([]int32, 3), math.MaxInt32-2) {
		t.Fatal("the cluster count and the heaviest arc are part of the bound")
	}
	cl, err := ClusterContext(t.Context(), graph.Path(12), 2, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cl.Radii[0] = 1 << 30
	if _, err := OracleFromClustering(context.Background(), cl, Options{}); err == nil || !strings.Contains(err.Error(), "32-bit cells") {
		t.Fatalf("OracleFromClustering with a 2³⁰ radius: err = %v, want the cell-range error", err)
	}
}

// Shortcuts weigh sums of arcs, so a core search can reach about twice the
// distance bound narrowCellsFit checks. A decomposition at the edge of that
// check — radii inflated until 2·Σradii + k + the heaviest arc is within
// one of 2³¹ − 1, the most it accepts — must still be built, through an overlay that takes
// fewer levels than the honest radii allow, and its tables must equal
// Dijkstra's and BFS's.
func TestOracleRefusesLevelsNotClustersNearTheCellBound(t *testing.T) {
	cl := voronoi(graph.RoadLike(24, 20, 0.4, 1), 120, 1)
	_, wq, err := quotient.BuildWeighted(cl.G, cl.Owner, cl.Dist, cl.NumClusters())
	if err != nil {
		t.Fatal(err)
	}
	honest := graph.NewOverlay(wq, quotientDistBound(cl.Radii))
	spare := (1<<31 - 2) - (quotientDistBound(cl.Radii) + int64(wq.MaxWeight()))
	cl.Radii[0] += int32(spare / 2)
	if !narrowCellsFit(cl.Radii, wq.MaxWeight()) || narrowCellsFit(cl.Radii, wq.MaxWeight()+2) {
		t.Fatalf("premise: radii not at the edge of narrowCellsFit (spare %d)", spare)
	}
	tight := graph.NewOverlay(wq, quotientDistBound(cl.Radii))
	if tight.Levels() >= honest.Levels() {
		t.Fatalf("inflated radii took %d levels, honest ones %d: no shortcut was refused", tight.Levels(), honest.Levels())
	}
	assertTablesMatchReferences(t, "nearBound", cl, 1, 2)
}

// Each table is stored once: a build allocates the 3·k(k−1) bytes of its two
// triangles plus the quotient and per-worker scratch, which on this input
// (k = 900) are well under the triangles. Square tables — even narrow ones,
// 6·k² bytes for the two — fail it: they alone exceed 3·k(k−1) plus the
// slack of either worker count, and a wide intermediate does by more.
func TestOracleBuildAllocatesOnlyNarrowTables(t *testing.T) {
	cl := voronoi(graph.RoadLike(40, 40, 0.4, 5), 900, 2)
	k := int64(cl.NumClusters())
	for _, workers := range []int{1, 2} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		o, err := OracleFromClustering(context.Background(), cl, Options{Workers: workers})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		// Slack: the contraction's O(n + quotient arcs) and, per worker, one
		// APSPScratch (40 bytes a cluster), the kernels' scratch row and hop
		// block (4 + 2·64 = 132 bytes a cluster) and a goroutine — 1 KiB per
		// cluster per worker covers them several times over at this size.
		slack := k * 1024 * int64(workers)
		tables := 3 * k * (k - 1)
		got := int64(after.TotalAlloc - before.TotalAlloc)
		t.Logf("workers=%d: %d bytes allocated, tables %d, slack %d", workers, got, tables, slack)
		if got > tables+slack {
			t.Fatalf("workers=%d: build of %d clusters allocated %d bytes, want <= 3·k(k−1) + %d = %d",
				workers, k, got, slack, tables+slack)
		}
		runtime.KeepAlive(o)
	}
}

// Both sentinels surface as graph.InfDist from every accessor.
func TestOracleUnreachableCellsSurfaceAsInfDist(t *testing.T) {
	g := graph.FromEdges(7, [][2]graph.NodeID{{0, 1}, {1, 2}, {2, 3}, {4, 5}, {5, 6}})
	o, err := BuildOracle(context.Background(), g, 1, false, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	assertCellsWithinBound(t, o)
	out := make([]int64, 2)
	o.QueryBatchInto([][2]graph.NodeID{{0, 6}, {0, 3}}, out)
	if o.Query(0, 6) != graph.InfDist || o.LowerQuery(0, 6) != graph.InfDist || out[0] != graph.InfDist {
		t.Fatalf("cross-component pair: Query %d, LowerQuery %d, batch %d, want InfDist from all three",
			o.Query(0, 6), o.LowerQuery(0, 6), out[0])
	}
	if out[1] != o.Query(0, 3) || out[1] == graph.InfDist || o.LowerQuery(0, 3) == graph.InfDist {
		t.Fatalf("same-component pair: Query %d, LowerQuery %d, batch %d", o.Query(0, 3), o.LowerQuery(0, 3), out[1])
	}
	k := o.NumClusters()
	owner := o.Clustering().Owner
	flatA, flatH := o.APSPFlat(), o.HopsFlat()
	comp, _ := g.ConnectedComponents()
	for u := range owner {
		for v := range owner {
			cell := int(owner[u])*k + int(owner[v])
			if inf := comp[u] != comp[v]; inf != (flatA[cell] == graph.InfDist) || inf != (flatH[cell] == graph.InfDist) {
				t.Fatalf("flat cell of (%d,%d) = %d / %d hops, cross-component = %v", u, v, flatA[cell], flatH[cell], inf)
			}
		}
	}
}

// voronoi is the decomposition of connected g around k random centers, each
// node owned by its nearest: a clustering with exactly k clusters, which no
// choice of τ and seed promises.
func voronoi(g *graph.Graph, k int, seed uint64) *Clustering {
	cl := &Clustering{G: g, Owner: make([]graph.NodeID, g.NumNodes()), Radii: make([]int32, k)}
	index := make(map[graph.NodeID]graph.NodeID, k)
	for i, u := range rng.New(seed).Perm(g.NumNodes())[:k] {
		cl.Centers = append(cl.Centers, graph.NodeID(u))
		index[graph.NodeID(u)] = graph.NodeID(i)
	}
	var nearest []graph.NodeID
	cl.Dist, nearest = g.MultiSourceBFS(cl.Centers)
	for u, center := range nearest {
		c := index[center]
		cl.Owner[u] = c
		cl.Radii[c] = max(cl.Radii[c], cl.Dist[u])
	}
	return cl
}

// oracleFixtures are clusterings whose cluster counts fall on both sides of
// every APSP block edge, one of them across components, plus the one- and
// two-cluster quotients whose triangles hold no cell and one.
func oracleFixtures(t *testing.T) map[string]*Clustering {
	road, err := ClusterContext(t.Context(), graph.RoadLike(25, 25, 0.4, 13), 2, Options{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	union, err := ClusterContext(t.Context(), goldenGraphs()["union"], 2, Options{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]*Clustering{"road": road, "union": union}
	for _, k := range []int{1, 2, 40, 64, 65, 127, 129} {
		cases[fmt.Sprintf("k=%d", k)] = voronoi(graph.RoadLike(20, 20, 0.4, uint64(k)), k, 1)
	}
	return cases
}

// OracleFromParts takes triangles and no other shape: a built oracle's own
// tables are accepted, while a square table — what a version-3 snapshot
// held — is refused, for one cluster as for many.
func TestOracleFromPartsTakesOnlyTriangles(t *testing.T) {
	for _, k := range []int{1, 2, 7} {
		cl := voronoi(graph.RoadLike(10, 10, 0.4, 2), k, 3)
		o, err := OracleFromClustering(context.Background(), cl, Options{})
		if err != nil {
			t.Fatal(err)
		}
		apsp, hops := o.Tables()
		if _, err := OracleFromParts(cl, apsp, hops); err != nil {
			t.Fatalf("k=%d: the oracle's own tables refused: %v", k, err)
		}
		squareA, squareH := make([]uint32, k*k), make([]uint16, k*k)
		for _, parts := range []struct {
			apsp []uint32
			hops []uint16
		}{{squareA, hops}, {apsp, squareH}, {squareA, squareH}} {
			if _, err := OracleFromParts(cl, parts.apsp, parts.hops); err == nil {
				t.Fatalf("k=%d: %d distance and %d hop cells accepted, want %d each", k, len(parts.apsp), len(parts.hops), k*(k-1)/2)
			}
		}
	}
}

func TestOracleFanOutMatchesSequentialBuild(t *testing.T) {
	// The block fan-out and its two kernels must not change a single table
	// entry: every row is identical to an independent Dijkstra + BFS build
	// of the same quotient, at every worker count, for cluster counts on
	// both sides of every block edge and across components. The APSP cost
	// counters are schedule-free, so they too agree at every worker count.
	for name, cl := range oracleFixtures(t) {
		assertTablesMatchReferences(t, name, cl, 1, 2, 4, 8)
	}
}

// The build searches only from the clusters outside an independent set I
// of the quotient and fills I's rows from their neighbours' cells. On seeded
// samples of the generator families — mesh, road-like, G(n,p), RMAT's
// largest component, Barabási–Albert — both tables must equal per-source
// Dijkstra + BFS, and APSPStats must agree at workers 1, 2, 3 and 8 and count
// one relaxation per core arc a row's search scans and per min-term a lift,
// a sweep or a merge takes. The
// other shapes aim at the merge: a star quotient, where I holds every
// cluster but the hub; a disconnected union with isolated clusters, whose
// rows merge from no neighbour at all and whose cells across components must
// stay unreachable (an unreachable cell plus a weight, wrapped in 32 bits,
// would be a small finite distance); and 1, 2, 64 and 65 clusters.
func TestOracleMergedRowsMatchReferences(t *testing.T) {
	var crossMerged, isolated int
	for seed := uint64(1); seed <= 2; seed++ {
		r := rng.New(seed)
		rmat, _ := graph.RMAT(9, 8, seed).LargestComponent()
		cases := map[string]*Clustering{
			"mesh":  voronoi(graph.Mesh(20, 15), 40+r.Intn(90), seed),
			"road":  voronoi(graph.RoadLike(24, 20, 0.4, seed), 40+r.Intn(90), seed),
			"gnp":   clusterAt(t, graph.ErdosRenyi(300, 420, seed), 2, seed),
			"rmat":  voronoi(rmat, 20+r.Intn(80), seed),
			"ba":    voronoi(graph.BarabasiAlbert(300, 2, seed), 40+r.Intn(90), seed),
			"star":  voronoi(graph.Star(150), 70+r.Intn(60), seed),
			"union": clusterAt(t, goldenGraphs()["union"], 2, seed),
		}
		for _, k := range []int{1, 2, 64, 65} {
			cases[fmt.Sprintf("k=%d", k)] = voronoi(graph.RoadLike(12, 12, 0.4, seed), k, seed)
		}
		for name, cl := range cases {
			name = fmt.Sprintf("%s/seed%d", name, seed)
			wq, want, stats := assertTablesMatchReferences(t, name, cl, 1, 2, 3, 8)
			k := cl.NumClusters()
			set, rest := independentSet(wq)
			ov := graph.NewOverlay(wq, quotientDistBound(cl.Radii))
			core, ids := ov.Core()
			var relaxations, sweep int64
			for x := range k {
				kept, _ := ov.Kept(graph.NodeID(x))
				sweep += int64(len(kept))
			}
			for _, c := range rest {
				relaxations += sweep + liftTerms(ov, c)
				for i, d := range ids {
					if want[int(c)*k+int(d)] != graph.InfDist {
						relaxations += int64(core.Degree(graph.NodeID(i)))
					}
				}
			}
			for i, x := range set {
				deg := wq.Degree(x)
				relaxations += int64(deg * i)
				if deg == 0 {
					isolated++
					continue
				}
				for _, d := range set[:i] {
					if want[int(x)*k+int(d)] == graph.InfDist {
						crossMerged++
					}
				}
			}
			if stats.Relaxations != relaxations || stats.Messages != relaxations {
				t.Fatalf("%s: APSPStats %+v, want %d relaxations and messages: core arcs scanned plus lift, sweep and merge min-terms",
					name, stats, relaxations)
			}
			if strings.HasPrefix(name, "star/") && len(set) != k-1 {
				t.Fatalf("%s: %d of %d clusters in I, want all but the hub", name, len(set), k)
			}
		}
	}
	if crossMerged == 0 || isolated == 0 {
		t.Fatalf("inputs too tame: %d merged cells across components, %d isolated clusters in I", crossMerged, isolated)
	}
}

// independentSet is the set I the oracle merges and the rest it searches.
func independentSet(wq *graph.Weighted) (set, rest []graph.NodeID) { return wq.IndependentSet() }

// liftTerms counts the min-terms of the lift from c: the kept arcs of every
// node reachable from c along kept arcs.
func liftTerms(ov *graph.Overlay, c graph.NodeID) int64 {
	var terms int64
	seen := map[graph.NodeID]bool{c: true}
	for stack := []graph.NodeID{c}; len(stack) > 0; {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		kept, _ := ov.Kept(x)
		terms += int64(len(kept))
		for _, u := range kept {
			if !seen[u] {
				seen[u] = true
				stack = append(stack, u)
			}
		}
	}
	return terms
}

// clusterAt is CLUSTER(τ) over g, which may be disconnected.
func clusterAt(t *testing.T, g *graph.Graph, tau int, seed uint64) *Clustering {
	t.Helper()
	cl, err := ClusterContext(t.Context(), g, tau, Options{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

// assertTablesMatchReferences builds cl's oracle at each worker count and
// requires both tables to equal an independent Dijkstra + BFS build of the
// same quotient cell for cell, exactly the cross-component cells to be
// unreachable, and APSPStats to be the same at every worker count. It
// returns the weighted quotient, the reference distances (square) and the
// APSPStats.
func assertTablesMatchReferences(t *testing.T, name string, cl *Clustering, workerCounts ...int) (*graph.Weighted, []int64, bsp.Stats) {
	t.Helper()
	k := cl.NumClusters()
	q, wq, err := quotient.BuildWeighted(cl.G, cl.Owner, cl.Dist, k)
	if err != nil {
		t.Fatal(err)
	}
	wantAPSP, wantHops := make([]int64, k*k), make([]int64, k*k)
	for c := 0; c < k; c++ {
		wq.DijkstraInto(graph.NodeID(c), wantAPSP[c*k:(c+1)*k])
		for d, h := range q.BFS(graph.NodeID(c)) {
			wantHops[c*k+d] = int64(h)
			if h < 0 {
				wantHops[c*k+d] = graph.InfDist
			}
		}
	}
	// Exactly the cross-component cells are InfDist, in both tables.
	comp, _ := cl.G.ConnectedComponents()
	for c, u := range cl.Centers {
		for d, v := range cl.Centers {
			if inf := comp[u] != comp[v]; inf != (wantAPSP[c*k+d] == graph.InfDist) || inf != (wantHops[c*k+d] == graph.InfDist) {
				t.Fatalf("%s: reference cell (%d,%d) = %d / %d, cross-component = %v", name, c, d, wantAPSP[c*k+d], wantHops[c*k+d], inf)
			}
		}
	}
	var stats bsp.Stats
	for _, workers := range workerCounts {
		o, err := OracleFromClustering(context.Background(), cl, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if workers == workerCounts[0] {
			stats = o.APSPStats()
		} else if o.APSPStats() != stats {
			t.Fatalf("%s workers=%d: APSP stats %+v diverge from %d workers' %+v", name, workers, o.APSPStats(), workerCounts[0], stats)
		}
		gotAPSP, gotHops := o.APSPFlat(), o.HopsFlat() // widened copies: once, not per cell
		for i := 0; i < k*k; i++ {
			if gotAPSP[i] != wantAPSP[i] || gotHops[i] != wantHops[i] {
				t.Fatalf("%s (k=%d) workers=%d: entry (%d,%d) = %d / %d hops, Dijkstra + BFS say %d / %d",
					name, k, workers, i/k, i%k, gotAPSP[i], gotHops[i], wantAPSP[i], wantHops[i])
			}
		}
		assertCellsWithinBound(t, o)
	}
	return wq, wantAPSP, stats
}

func TestOracleLowerQueryBoundsTruth(t *testing.T) {
	g := graph.Mesh(25, 25)
	o, err := BuildOracle(context.Background(), g, 2, false, Options{Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	assertCellsWithinBound(t, o)
	r := rng.New(31)
	n := g.NumNodes()
	for trial := 0; trial < 30; trial++ {
		u := graph.NodeID(r.Intn(n))
		v := graph.NodeID(r.Intn(n))
		truth := int64(g.BFS(u)[v])
		lo := o.LowerQuery(u, v)
		hi := o.Query(u, v)
		if lo > truth {
			t.Fatalf("lower bound %d exceeds true distance %d for (%d,%d)", lo, truth, u, v)
		}
		if lo > hi {
			t.Fatalf("lower bound %d exceeds upper bound %d", lo, hi)
		}
	}
	if o.LowerQuery(3, 3) != 0 {
		t.Fatal("LowerQuery(u,u) != 0")
	}
}

func TestOracleLowerQueryDisconnected(t *testing.T) {
	b := graph.NewBuilder(10)
	for i := 0; i < 4; i++ {
		b.AddEdge(graph.NodeID(i), graph.NodeID(i+1))
	}
	for i := 5; i < 9; i++ {
		b.AddEdge(graph.NodeID(i), graph.NodeID(i+1))
	}
	o, err := BuildOracle(context.Background(), b.Build(), 2, false, Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	assertCellsWithinBound(t, o)
	if o.LowerQuery(0, 8) != graph.InfDist {
		t.Fatal("cross-component lower bound should be InfDist")
	}
}

func TestOracleFlatAccessorsConsistent(t *testing.T) {
	// APSPFlat()/HopsFlat() are row-major k×k: entry (c, d) lives at c*k+d.
	// Cluster centers sit at distance 0 from themselves, so a center-to-
	// center query must read back exactly that entry of each table.
	g := graph.RoadLike(20, 20, 0.4, 21)
	o, err := BuildOracle(context.Background(), g, 2, false, Options{Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	assertCellsWithinBound(t, o)
	k := o.NumClusters()
	flatA, flatH := o.APSPFlat(), o.HopsFlat()
	if len(flatA) != k*k || len(flatH) != k*k {
		t.Fatalf("flat tables %d/%d entries, want %d", len(flatA), len(flatH), k*k)
	}
	centers := o.Clustering().Centers
	for c := 0; c < k; c++ {
		for d := 0; d < k; d++ {
			if c == d {
				continue
			}
			if got := o.Query(centers[c], centers[d]); got != flatA[c*k+d] {
				t.Fatalf("Query(center %d, center %d) = %d, flat APSP entry %d", c, d, got, flatA[c*k+d])
			}
			if got := o.LowerQuery(centers[c], centers[d]); got != flatH[c*k+d] {
				t.Fatalf("LowerQuery(center %d, center %d) = %d, flat hop entry %d", c, d, got, flatH[c*k+d])
			}
		}
	}
}

func TestQueryBatchMatchesQuery(t *testing.T) {
	// The batch path must answer exactly what Query answers pair by pair,
	// including u==v, same-cluster, cross-cluster, and cross-component
	// (InfDist) pairs.
	b := graph.NewBuilder(900 + 20)
	mesh := graph.Mesh(30, 30)
	xadj, adj := mesh.CSR()
	for u := 0; u < 900; u++ {
		for _, v := range adj[xadj[u]:xadj[u+1]] {
			if graph.NodeID(u) < v {
				b.AddEdge(graph.NodeID(u), v)
			}
		}
	}
	for i := 900; i < 919; i++ {
		b.AddEdge(graph.NodeID(i), graph.NodeID(i+1))
	}
	g := b.Build()
	o, err := BuildOracle(context.Background(), g, 2, false, Options{Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	assertCellsWithinBound(t, o)
	r := rng.New(17)
	n := g.NumNodes()
	pairs := make([][2]graph.NodeID, 0, 512)
	for i := 0; i < 500; i++ {
		pairs = append(pairs, [2]graph.NodeID{graph.NodeID(r.Intn(n)), graph.NodeID(r.Intn(n))})
	}
	pairs = append(pairs,
		[2]graph.NodeID{5, 5},     // identity
		[2]graph.NodeID{0, 905},   // cross-component
		[2]graph.NodeID{905, 910}, // inside the path component
	)
	out := make([]int64, len(pairs))
	o.QueryBatchInto(pairs, out)
	for i, p := range pairs {
		if want := o.Query(p[0], p[1]); out[i] != want {
			t.Fatalf("pair %d (%d,%d): batch %d != point %d", i, p[0], p[1], out[i], want)
		}
	}
}

func TestQueryBatchZeroAllocs(t *testing.T) {
	// The pinned guarantee of the batch-first query path: answering a
	// warm batch allocates nothing — not per pair, not per call.
	g := graph.Mesh(30, 30)
	o, err := BuildOracle(context.Background(), g, 2, false, Options{Seed: 14})
	if err != nil {
		t.Fatal(err)
	}
	assertCellsWithinBound(t, o)
	r := rng.New(23)
	n := g.NumNodes()
	pairs := make([][2]graph.NodeID, 4096)
	for i := range pairs {
		pairs[i] = [2]graph.NodeID{graph.NodeID(r.Intn(n)), graph.NodeID(r.Intn(n))}
	}
	out := make([]int64, len(pairs))
	allocs := testing.AllocsPerRun(50, func() {
		o.QueryBatchInto(pairs, out)
	})
	if allocs != 0 {
		t.Fatalf("QueryBatchInto allocated %.1f times per call, want 0", allocs)
	}
}

func TestDefaultOracleTau(t *testing.T) {
	if DefaultOracleTau(100) < 1 {
		t.Fatal("tau must be >= 1")
	}
	if DefaultOracleTau(1<<30) < 1 {
		t.Fatal("tau must stay positive for large n")
	}
	// sqrt(n)/log⁴n only exceeds 1 for astronomically large n.
	if DefaultOracleTau(1<<60) < 2 {
		t.Fatal("tau should grow for huge n")
	}
}

// fineClustering is the benchmark's `fine` decomposition: RoadLike(400,400)
// cut at τ = 8 into ≈ 3,500 clusters.
func fineClustering(b *testing.B) *Clustering {
	cl, err := ClusterContext(b.Context(), graph.RoadLike(400, 400, 0.4, 1), 8, Options{Seed: 1, Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	return cl
}

// BenchmarkOracleFromClusteringFine is the benchmark's `fine` oracle build
// without its 40 s harness: the quotient APSP is the whole build. Its
// ns/source is per cluster row, averaged over the computed rows and the
// merged ones (about half each on this quotient); a computed row's search
// runs on the overlay's core, whose size and levels it reports, and the
// rest of the row is a lift and a sweep. For paired runs build it once per
// side with `go test -c` and alternate the binaries;
// BenchmarkQueryBatchIntoFine pairs the same way.
func BenchmarkOracleFromClusteringFine(b *testing.B) {
	cl := fineClustering(b)
	_, wq, err := quotient.BuildWeighted(cl.G, cl.Owner, cl.Dist, cl.NumClusters())
	if err != nil {
		b.Fatal(err)
	}
	ov := graph.NewOverlay(wq, quotientDistBound(cl.Radii))
	core, _ := ov.Core()
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var o *Oracle
			for b.Loop() {
				if o, err = OracleFromClustering(context.Background(), cl, Options{Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*o.NumClusters()), "ns/source")
			b.ReportMetric(float64(o.APSPStats().Relaxations), "relaxations/op")
			b.ReportMetric(float64(core.NumNodes()), "core-nodes")
			b.ReportMetric(float64(ov.Levels()), "levels")
		})
	}
}

// BenchmarkQueryBatchIntoFine is the benchmark's `fine` batch lookup without
// its harness: the τ = 8 oracle answers frames of 4,096 random pairs, cycling
// through 64 of them (2 MiB of pairs over ≈ 35 MB of tables), so lookups miss
// cache as the daemon's do.
func BenchmarkQueryBatchIntoFine(b *testing.B) {
	o, err := OracleFromClustering(context.Background(), fineClustering(b), Options{})
	if err != nil {
		b.Fatal(err)
	}
	const frameSize = 4096
	r := rng.New(1)
	n := o.Clustering().G.NumNodes()
	frames := make([][][2]graph.NodeID, 64)
	for i := range frames {
		frames[i] = make([][2]graph.NodeID, frameSize)
		for j := range frames[i] {
			frames[i][j] = [2]graph.NodeID{graph.NodeID(r.Intn(n)), graph.NodeID(r.Intn(n))}
		}
	}
	out := make([]int64, frameSize)
	i := 0
	for b.Loop() {
		o.QueryBatchInto(frames[i%len(frames)], out)
		i++
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*frameSize), "ns/pair")
}
