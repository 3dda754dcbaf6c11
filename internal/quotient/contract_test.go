package quotient_test

import (
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/quotient"
)

// naiveContract is the reference the contraction is diffed against: every
// edge once, the minimum per unordered cluster pair in a map, then the one
// canonical layout.
func naiveContract(g *graph.Graph, owner []graph.NodeID, dist []int32, k int) *graph.Weighted {
	min := map[[2]graph.NodeID]int32{}
	for u := graph.NodeID(0); int(u) < g.NumNodes(); u++ {
		for _, v := range g.Neighbors(u) {
			if u >= v || owner[u] == owner[v] {
				continue
			}
			w := int32(1)
			if dist != nil {
				w += dist[u] + dist[v]
			}
			pair := [2]graph.NodeID{owner[u], owner[v]}
			if pair[0] > pair[1] {
				pair[0], pair[1] = pair[1], pair[0]
			}
			if cur, ok := min[pair]; !ok || w < cur {
				min[pair] = w
			}
		}
	}
	edges := make([][2]graph.NodeID, 0, len(min))
	weights := make([]int32, 0, len(min))
	for pair, w := range min {
		edges = append(edges, pair)
		weights = append(weights, w)
	}
	return graph.MustWeighted(k, edges, weights)
}

// union places the parts side by side and appends isolated nodes.
func union(isolated int, parts ...*graph.Graph) *graph.Graph {
	b := graph.NewBuilder(0)
	off := graph.NodeID(0)
	for _, p := range parts {
		b.Grow(int(off) + p.NumNodes())
		p.Edges(func(u, v graph.NodeID) bool { b.AddEdge(off+u, off+v); return true })
		off += graph.NodeID(p.NumNodes())
	}
	b.Grow(int(off) + isolated)
	return b.Build()
}

// The contraction is one body for every worker count, so the graph it
// returns — CSR arrays and weights — must be the naive reference's at
// workers 1, 2, 3 and 8, weighted and unweighted, over every family the
// repository generates and every clustering shape: CLUSTER(τ) at a coarse
// and a fine granularity, one cluster, all singletons, and the empty graph.
// Every non-empty input spans at least three claims (≥ 190 k arcs; a claim
// is 64 k), RMAT's largest component being the one whose hubs and
// low-id-heavy work would unbalance a split by nodes.
func TestContractMatchesNaiveReferenceAtEveryWorkerCount(t *testing.T) {
	for seed := uint64(1); seed <= 2; seed++ {
		rmat, _ := graph.RMAT(14, 8, seed).LargestComponent()
		small, _ := graph.RMAT(12, 8, seed+7).LargestComponent()
		for name, g := range map[string]*graph.Graph{
			"mesh":  graph.Mesh(220, 220),
			"road":  graph.RoadLike(280, 280, 0.4, seed),
			"gnm":   graph.ErdosRenyi(20000, 100000, seed),
			"rmat":  rmat,
			"union": union(100, graph.Mesh(200, 200), graph.Cycle(5000), small),
			"empty": graph.NewBuilder(0).Build(),
		} {
			n := g.NumNodes()
			type clustering struct {
				name  string
				owner []graph.NodeID
				dist  []int32
				k     int
			}
			var cls []clustering
			if n > 0 {
				for _, tau := range []int{2, 16} {
					cl := clusterOf(t, g, tau)
					cls = append(cls, clustering{"tau", cl.Owner, cl.Dist, cl.NumClusters()})
				}
			}
			if n > 0 && seed == 1 { // the degenerate clusterings do not depend on the seed
				one := clustering{"k=1", make([]graph.NodeID, n), make([]int32, n), 1}
				singletons := clustering{"k=n", make([]graph.NodeID, n), make([]int32, n), n}
				for u := 0; u < n; u++ {
					one.dist[u] = int32(u % 7)
					singletons.owner[u] = graph.NodeID(u)
				}
				cls = append(cls, one, singletons)
			}
			if n == 0 {
				cls = append(cls, clustering{"k=0", nil, []int32{}, 0})
			}
			for _, cl := range cls {
				for _, dist := range [][]int32{cl.dist, nil} {
					want := naiveContract(g, cl.owner, dist, cl.k)
					for _, workers := range []int{1, 2, 3, 8} {
						q, wq, err := quotient.Contract(g, cl.owner, dist, cl.k, workers)
						if err != nil {
							t.Fatalf("%s/%d %s weighted=%t workers=%d: %v", name, seed, cl.name, dist != nil, workers, err)
						}
						if !reflect.DeepEqual(wq, want) {
							t.Errorf("%s/%d %s weighted=%t workers=%d: %d edges, the reference has %d, or they differ",
								name, seed, cl.name, dist != nil, workers, wq.NumEdges(), want.NumEdges())
						}
						if !reflect.DeepEqual(q, wq.Topology()) {
							t.Errorf("%s/%d %s workers=%d: q is not wq's topology", name, seed, cl.name, workers)
						}
					}
				}
			}
		}
	}
}

// An owner out of range poisons the contraction even when only the last
// claim of a three-claim graph meets it, at every worker count, and the
// workers that were stopped early are gone when Contract returns.
func TestContractLateInvalidOwnerFailsAndLeavesNoGoroutines(t *testing.T) {
	g := graph.Mesh(220, 220)
	n := g.NumNodes()
	base := runtime.NumGoroutine()
	for _, bad := range []graph.NodeID{7, -1} {
		owner := make([]graph.NodeID, n)
		owner[n-1] = bad
		for _, workers := range []int{1, 2, 3, 8} {
			_, _, err := quotient.Contract(g, owner, make([]int32, n), 1, workers)
			if err == nil || !strings.Contains(err.Error(), "invalid cluster") {
				t.Fatalf("owner %d on the last node, workers=%d: err = %v, want an invalid-cluster error", bad, workers, err)
			}
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, want the baseline %d: leaked", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// Fewer arcs than one claim means one worker — the caller — whatever was
// asked for: eight workers would show as seven more accumulators and seven
// go statements, so the allocation count gives them away.
func TestContractSubChunkInputStaysOnTheCaller(t *testing.T) {
	g := graph.Path(6)
	owner := []graph.NodeID{0, 0, 0, 1, 1, 1}
	dist := []int32{0, 1, 2, 2, 1, 0}
	allocs := func(workers int) float64 {
		return testing.AllocsPerRun(20, func() {
			if _, _, err := quotient.Contract(g, owner, dist, 2, workers); err != nil {
				t.Fatal(err)
			}
		})
	}
	if one, eight := allocs(1), allocs(8); one != eight {
		t.Fatalf("%v allocations at workers=8, %v at workers=1: a sub-chunk input must not fan out", eight, one)
	}
}
