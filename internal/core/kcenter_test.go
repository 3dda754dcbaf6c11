package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/bsp"
	"repro/internal/gonzalez"
	"repro/internal/graph"
	"repro/internal/rng"
)

func TestKCenterBasic(t *testing.T) {
	g := graph.Mesh(30, 30)
	res, err := KCenter(context.Background(), g, 20, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Centers) == 0 || len(res.Centers) > 20 {
		t.Fatalf("got %d centers, want 1..20", len(res.Centers))
	}
	// Radius is the exact objective; it must dominate the optimum, which
	// itself is at least ~sqrt(area/k)/something; just sanity check bounds.
	if res.Radius <= 0 || res.Radius > 58 {
		t.Fatalf("radius %d outside (0, diameter]", res.Radius)
	}
}

func TestKCenterMatchesEvalCenters(t *testing.T) {
	g := graph.RoadLike(25, 25, 0.4, 2)
	res, err := KCenter(context.Background(), g, 12, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	r, err := EvalCenters(g, res.Centers)
	if err != nil {
		t.Fatal(err)
	}
	if r != res.Radius {
		t.Fatalf("reported radius %d, recomputed %d", res.Radius, r)
	}
}

func TestKCenterCompetitiveWithGonzalez(t *testing.T) {
	// Theorem 2 promises O(log³n); empirically the paper's algorithm is far
	// better. Require within 8x of the 2-approximation baseline across
	// graph families (a deliberately loose bound to keep the test stable
	// across seeds).
	for name, g := range map[string]*graph.Graph{
		"mesh":   graph.Mesh(35, 35),
		"road":   graph.RoadLike(30, 30, 0.4, 5),
		"social": graph.BarabasiAlbert(2000, 4, 6),
	} {
		k := 25
		res, err := KCenter(context.Background(), g, k, Options{Seed: 7})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		_, base, err := gonzalez.KCenter(g, k, 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if base > 0 && res.Radius > 8*base {
			t.Errorf("%s: CLUSTER k-center radius %d vs Gonzalez %d (over 8x)", name, res.Radius, base)
		}
	}
}

func TestKCenterMergePathTriggers(t *testing.T) {
	// Small k forces tau=1 which still yields O(log²n) clusters > k, so the
	// spanning-forest merge must run and still respect the budget.
	g := graph.Mesh(40, 40)
	res, err := KCenter(context.Background(), g, 5, Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Merged {
		t.Skip("decomposition returned <= k clusters; merge not exercised at this seed")
	}
	if len(res.Centers) > 5 {
		t.Fatalf("merge produced %d centers, budget 5", len(res.Centers))
	}
}

func TestKCenterErrors(t *testing.T) {
	if _, err := KCenter(context.Background(), graph.Path(5), 0, Options{}); err == nil {
		t.Fatal("k=0 should fail")
	}
	if _, err := KCenter(context.Background(), graph.NewBuilder(0).Build(), 1, Options{}); err == nil {
		t.Fatal("empty graph should fail")
	}
}

func TestKCenterDisconnectedInfeasible(t *testing.T) {
	b := graph.NewBuilder(10)
	for i := 0; i < 4; i++ {
		b.AddEdge(graph.NodeID(i), graph.NodeID(i+1))
	}
	for i := 5; i < 9; i++ {
		b.AddEdge(graph.NodeID(i), graph.NodeID(i+1))
	}
	g := b.Build()
	if _, err := KCenter(context.Background(), g, 1, Options{Seed: 1}); err == nil {
		t.Fatal("k=1 on a 2-component graph should fail")
	}
}

func TestKCenterDisconnectedFeasible(t *testing.T) {
	b := graph.NewBuilder(40)
	for i := 0; i < 19; i++ {
		b.AddEdge(graph.NodeID(i), graph.NodeID(i+1))
	}
	for i := 20; i < 39; i++ {
		b.AddEdge(graph.NodeID(i), graph.NodeID(i+1))
	}
	g := b.Build()
	res, err := KCenter(context.Background(), g, 6, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Centers) > 6 {
		t.Fatalf("%d centers exceed k", len(res.Centers))
	}
}

func TestEvalCentersErrors(t *testing.T) {
	g := graph.Path(5)
	if _, err := EvalCenters(g, nil); err == nil {
		t.Fatal("empty center set should fail")
	}
	for _, c := range []graph.NodeID{-1, 5} {
		if _, err := EvalCenters(g, []graph.NodeID{0, c}); err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Fatalf("center %d on a 5-node path: err = %v, want out of range", c, err)
		}
	}
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1) // 2, 3 isolated
	if _, err := EvalCenters(b.Build(), []graph.NodeID{0}); err == nil {
		t.Fatal("unreachable node should fail")
	}
}

func TestEvalCentersExact(t *testing.T) {
	g := graph.Path(10)
	r, err := EvalCenters(g, []graph.NodeID{0})
	if err != nil {
		t.Fatal(err)
	}
	if r != 9 {
		t.Fatalf("radius %d want 9", r)
	}
	r, err = EvalCenters(g, []graph.NodeID{0, 9})
	if err != nil {
		t.Fatal(err)
	}
	if r != 4 {
		t.Fatalf("radius %d want 4", r)
	}
}

// referenceEvalCenters is EvalCenters as a top-down multi-source BFS with
// distances, the way it was computed before the radius sweep: the largest
// distance, or the error naming the first unreached node.
func referenceEvalCenters(g *graph.Graph, centers []graph.NodeID) (int32, error) {
	dist, _ := g.MultiSourceBFS(centers)
	var radius int32
	for u, d := range dist {
		if d < 0 {
			return 0, fmt.Errorf("%w: node %d unreachable from all centers (k below the number of components?)", ErrInfeasible, u)
		}
		radius = max(radius, d)
	}
	return radius, nil
}

// disjointUnion lays the graphs side by side, renumbering each after the
// ones before it.
func disjointUnion(gs ...*graph.Graph) *graph.Graph {
	total := 0
	for _, g := range gs {
		total += g.NumNodes()
	}
	b := graph.NewBuilder(total)
	off := graph.NodeID(0)
	for _, g := range gs {
		g.Edges(func(u, v graph.NodeID) bool {
			b.AddEdge(off+u, off+v)
			return true
		})
		off += graph.NodeID(g.NumNodes())
	}
	return b.Build()
}

// pullLevels counts the levels of a multi-source BFS from centers that the
// engine's cost rule runs bottom-up, reading the levels off the reference
// distances: what the radius sweep decides, level by level.
func pullLevels(g *graph.Graph, centers []graph.NodeID) int {
	dist, _ := g.MultiSourceBFS(centers)
	var nodes, arcs []int64 // per level
	for u, d := range dist {
		if d < 0 {
			continue
		}
		for int(d) >= len(nodes) {
			nodes, arcs = append(nodes, 0), append(arcs, 0)
		}
		nodes[d]++
		arcs[d] += int64(g.Degree(graph.NodeID(u)))
	}
	n := int64(g.NumNodes())
	nu, mu := n, int64(2*g.NumEdges())
	pulls := 0
	for d := range nodes {
		nu, mu = nu-nodes[d], mu-arcs[d]
		if bsp.PullCheaper(n, nodes[d], arcs[d], nu, mu) {
			pulls++
		}
	}
	return pulls
}

// TestEvalCentersMatchesMultiSourceBFS diffs the radius sweep against the
// reference on every generator family, on graphs whose levels pull, on
// degenerate shapes and center sets, and on disconnected inputs, whose
// error must read as it did.
func TestEvalCentersMatchesMultiSourceBFS(t *testing.T) {
	social, _ := graph.RMAT(14, 8, 3).LargestComponent()
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"mesh", graph.Mesh(37, 23)},
		{"road", graph.RoadLike(60, 45, 0.4, 2)},
		{"er", graph.ErdosRenyi(3000, 9000, 4)},
		{"ba", graph.BarabasiAlbert(3000, 3, 5)},
		{"rmat-lcc", social},
		{"star", graph.Star(700)},
		{"path", graph.Path(300)},
		{"single", graph.Path(1)},
		{"union-mesh-path", disjointUnion(graph.Mesh(10, 10), graph.Path(50))},
		{"union-isolated", disjointUnion(graph.Path(1), graph.Star(30), graph.Path(1), graph.RoadLike(8, 8, 0.4, 1))},
	}
	r := rng.New(44)
	for _, c := range graphs {
		n := c.g.NumNodes()
		sets := [][]graph.NodeID{{0}, {graph.NodeID(n - 1)}}
		for _, k := range []int{1, 2, 5, 17, 64} {
			set := make([]graph.NodeID, k)
			for i := range set {
				set[i] = graph.NodeID(r.Intn(n))
			}
			sets = append(sets, set)
		}
		dup := graph.NodeID(r.Intn(n))
		sets = append(sets, []graph.NodeID{dup, dup, dup}, []graph.NodeID{dup, 0, dup, 0})
		all := make([]graph.NodeID, n)
		for u := range all {
			all[u] = graph.NodeID(n - 1 - u)
		}
		sets = append(sets, all)
		failures, pulls := 0, 0
		for _, centers := range sets {
			got, err := EvalCenters(c.g, centers)
			want, wantErr := referenceEvalCenters(c.g, centers)
			if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
				t.Fatalf("%s, %d centers: err %v, want %v", c.name, len(centers), err, wantErr)
			}
			if err != nil {
				if !errors.Is(err, ErrInfeasible) {
					t.Fatalf("%s: err %v is not ErrInfeasible", c.name, err)
				}
				failures++
				continue
			}
			if got != want {
				t.Fatalf("%s, %d centers: radius %d, want %d", c.name, len(centers), got, want)
			}
			if len(centers) == n && got != 0 {
				t.Fatalf("%s: every node a center, radius %d", c.name, got)
			}
			pulls += pullLevels(c.g, centers)
		}
		if strings.HasPrefix(c.name, "union") && failures == 0 {
			t.Fatalf("%s: no center set left a node unreached", c.name)
		}
		if c.name == "rmat-lcc" && pulls == 0 {
			t.Fatalf("%s: no level pulled; the input does not exercise bottom-up levels", c.name)
		}
	}
}

// TestEvalCentersAllocatesUnderABitmapAndTheFrontier pins the sweep's
// memory: a visited bitmap, the frontier lists or bitmaps, no per-node
// words. The distance pass it replaced allocated 12 bytes a node.
func TestEvalCentersAllocatesUnderABitmapAndTheFrontier(t *testing.T) {
	social, _ := graph.RMAT(15, 8, 1).LargestComponent()
	for _, c := range []struct {
		name    string
		g       *graph.Graph
		centers []graph.NodeID
	}{
		{"road", graph.RoadLike(300, 300, 0.4, 1), []graph.NodeID{0, 4321, 45000, 89999}},
		{"rmat-lcc", social, []graph.NodeID{0, 17, 1000, 5000, 9000}},
	} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		if _, err := EvalCenters(c.g, c.centers); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		perNode := float64(after.TotalAlloc-before.TotalAlloc) / float64(c.g.NumNodes())
		t.Logf("%s: %.2f bytes a node", c.name, perNode)
		if perNode > 6 {
			t.Errorf("%s: EvalCenters allocated %.2f bytes a node, want at most 6 (half the distance pass's 12)", c.name, perNode)
		}
	}
}

func TestTauForTargetClusters(t *testing.T) {
	g := graph.Mesh(50, 50)
	tau, cl, err := TauForTargetClusters(t.Context(), g, 150, 0.3, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if tau < 1 {
		t.Fatalf("tau=%d", tau)
	}
	k := cl.NumClusters()
	if k < 75 || k > 300 {
		t.Fatalf("target 150 clusters, got %d (tau=%d)", k, tau)
	}
}

func TestTauForTargetClustersErrors(t *testing.T) {
	if _, _, err := TauForTargetClusters(t.Context(), graph.Path(10), 0, 0.1, Options{}); err == nil {
		t.Fatal("target 0 should fail")
	}
}

// kcenterShape is one of the benchmark's three workload graphs at seed 1
// with the k its k-center operation asks for, built on first use and kept
// for the process.
type kcenterShape struct {
	name string
	k    int
	gen  func() *graph.Graph
	once sync.Once
	g    *graph.Graph
}

func (s *kcenterShape) graph() *graph.Graph {
	s.once.Do(func() { s.g = s.gen() })
	return s.g
}

var kcenterShapes = []*kcenterShape{
	{name: "road", k: 64, gen: func() *graph.Graph { return graph.RoadLike(1000, 1000, 0.4, 1) }},
	{name: "social", k: 32, gen: func() *graph.Graph {
		g, _ := graph.RMAT(19, 8, 1).LargestComponent()
		return g
	}},
	{name: "fine", k: 256, gen: func() *graph.Graph { return graph.RoadLike(400, 400, 0.4, 1) }},
}

// BenchmarkEvalCenters is the benchmark's core.eval_centers_s without its
// harness: the exact radius of KCenter's centers (seed 1) on each workload
// graph. For paired runs build it once per side with `go test -c` and
// alternate the binaries, as for BenchmarkOracleFromClusteringFine.
func BenchmarkEvalCenters(b *testing.B) {
	for _, s := range kcenterShapes {
		b.Run(s.name, func(b *testing.B) {
			g := s.graph()
			res, err := KCenter(b.Context(), g, s.k, Options{Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			for b.Loop() {
				if r, err := EvalCenters(g, res.Centers); err != nil || r != res.Radius {
					b.Fatalf("radius %d, err %v; KCenter said %d", r, err, res.Radius)
				}
			}
			b.ReportMetric(float64(res.Radius), "radius")
		})
	}
}

// BenchmarkKCenter is the benchmark's kcenter_x_bfs operation without its
// harness: KCenter on each workload graph at all cores, cycling through
// eight decomposition seeds, since its work goes with the seed.
func BenchmarkKCenter(b *testing.B) {
	for _, s := range kcenterShapes {
		b.Run(s.name, func(b *testing.B) {
			g := s.graph()
			seed := uint64(0)
			for b.Loop() {
				seed = seed%8 + 1
				if _, err := KCenter(b.Context(), g, s.k, Options{Seed: seed, Workers: runtime.GOMAXPROCS(0)}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
