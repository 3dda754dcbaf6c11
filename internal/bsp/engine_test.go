package bsp_test

import (
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bsp"
	"repro/internal/graph"
)

// lowDiameterGraph is the G(n, p)-style benchmark topology of the issue's
// acceptance criterion: 20k nodes, average degree 10, diameter ~6.
func lowDiameterGraph() *graph.Graph {
	return graph.ErdosRenyi(20000, 100000, 1)
}

func TestPushPullEquivalenceHighAndLowDiameter(t *testing.T) {
	// The two directions must produce identical BFS distances on both the
	// high-diameter mesh (where hybrid stays top-down) and the low-diameter
	// random graph (where it flips bottom-up mid-traversal).
	for name, g := range map[string]*graph.Graph{
		"mesh":   graph.Mesh(60, 60),
		"random": lowDiameterGraph(),
	} {
		want, _ := engineBFS(g, 0, 1, bsp.DirPush)
		for _, workers := range []int{1, 4} {
			for _, dir := range []bsp.Direction{bsp.DirPush, bsp.DirPull, bsp.DirAuto} {
				got, _ := engineBFS(g, 0, workers, dir)
				for u := range want {
					if got[u] != want[u] {
						t.Fatalf("%s workers=%d dir=%v: dist[%d]=%d want %d",
							name, workers, dir, u, got[u], want[u])
					}
				}
			}
		}
	}
}

func TestHybridScansAtLeastTwiceFewerArcs(t *testing.T) {
	// Acceptance criterion: on a low-diameter G(n, p) graph a full BFS under
	// the hybrid engine must scan at least 2x fewer arcs than forced
	// top-down, with identical distances.
	g := lowDiameterGraph()
	pushDist, push := engineBFS(g, 0, 4, bsp.DirPush)
	autoDist, auto := engineBFS(g, 0, 4, bsp.DirAuto)
	for u := range pushDist {
		if pushDist[u] != autoDist[u] {
			t.Fatalf("hybrid diverged from push at node %d", u)
		}
	}
	if auto.PullRounds == 0 {
		t.Fatal("hybrid never switched to pull on a low-diameter graph")
	}
	if push.Messages < 2*auto.Messages {
		t.Fatalf("hybrid scanned %d arcs, forced push %d: want >= 2x reduction",
			auto.Messages, push.Messages)
	}
}

func TestHybridDirectionScheduleIsWorkerIndependent(t *testing.T) {
	// The per-round direction decision depends only on frontier sizes and
	// degree sums, which are schedule-independent; the round log must be
	// identical whatever the worker count.
	g := lowDiameterGraph()
	ref := func() []bsp.RoundStat {
		e := bsp.NewEngine(g, 1)
		defer e.Close()
		dist := make([]int32, g.NumNodes())
		for i := range dist {
			dist[i] = -1
		}
		dist[0] = 0
		e.Seed(0)
		for d := int32(1); e.FrontierLen() > 0; d++ {
			dd := d
			e.Step(bsp.StepSpec{
				Push: func(_ int, u, v graph.NodeID) bool {
					if dist[v] == -1 {
						dist[v] = dd
						return true
					}
					return false
				},
				Pull: func(_ int, v, u graph.NodeID) bool { dist[v] = dd; return true },
			})
		}
		return e.RoundLog()
	}()
	for _, workers := range []int{2, 5} {
		dist := make([]int32, g.NumNodes())
		for i := range dist {
			dist[i] = -1
		}
		dist[0] = 0
		e := bsp.NewEngine(g, workers)
		e.Seed(0)
		for d := int32(1); e.FrontierLen() > 0; d++ {
			dd := d
			e.Step(bsp.StepSpec{
				Push: func(_ int, u, v graph.NodeID) bool {
					return atomicCAS32(dist, v, -1, dd)
				},
				Pull: func(_ int, v, u graph.NodeID) bool { dist[v] = dd; return true },
			})
		}
		log := e.RoundLog()
		e.Close()
		if len(log) != len(ref) {
			t.Fatalf("workers=%d: %d rounds vs %d", workers, len(log), len(ref))
		}
		for i := range log {
			if log[i].Dir != ref[i].Dir || log[i].Frontier != ref[i].Frontier || log[i].Claimed != ref[i].Claimed {
				t.Fatalf("workers=%d round %d: %+v vs reference %+v", workers, i, log[i], ref[i])
			}
		}
	}
}

// A push round is sized and split by frontier arcs, not frontier nodes:
// eight hubs carrying 40,000 arcs between them go to the pool (eight nodes
// never did), one hub a claim, and what is claimed does not depend on who
// scanned what. A two-node tail behind one leaf adds a pooled round with a
// single claim and then an inline one, so scratch left over in a worker that
// claimed nothing would resurface as a phantom frontier.
func TestPushRoundSplitsHubFrontierByArcs(t *testing.T) {
	const hubs, leaves = 8, 5000
	b := graph.NewBuilder(hubs + hubs*leaves + 2)
	for h := 0; h < hubs; h++ {
		for l := 0; l < leaves; l++ {
			b.AddEdge(graph.NodeID(h), graph.NodeID(hubs+h*leaves+l))
		}
	}
	tail := graph.NodeID(hubs + hubs*leaves)
	b.AddEdge(tail-1, tail)
	b.AddEdge(tail, tail+1)
	g := b.Build()

	// run drives a forced-push traversal from the hubs and returns the
	// sorted frontier after every round.
	run := func(workers int, push func(worker int)) ([][]graph.NodeID, []bsp.RoundStat) {
		e := bsp.NewEngine(g, workers)
		defer e.Close()
		e.SetDirection(bsp.DirPush)
		owner := make([]int32, g.NumNodes())
		for i := range owner {
			owner[i] = -1
		}
		for h := graph.NodeID(0); h < hubs; h++ {
			owner[h] = h
			e.Seed(h)
		}
		var fronts [][]graph.NodeID
		for e.FrontierLen() > 0 {
			e.Step(bsp.StepSpec{Push: func(w int, u, v graph.NodeID) bool {
				push(w)
				return atomicCAS32(owner, v, -1, atomic.LoadInt32(&owner[u]))
			}})
			front := slices.Clone(e.Frontier())
			slices.Sort(front)
			fronts = append(fronts, front)
		}
		return fronts, slices.Clone(e.RoundLog())
	}

	want, wantLog := run(1, func(int) {})

	// Whichever worker calls Push first holds its hub until a second worker
	// has shown up, so the test does not depend on the pool waking before
	// the caller has scanned everything on a box with one core to spare.
	var (
		mu       sync.Mutex
		seen     = map[int]bool{}
		second   = make(chan struct{})
		release  sync.Once
		timedOut atomic.Bool
	)
	got, gotLog := run(4, func(w int) {
		select {
		case <-second:
			return
		default:
		}
		mu.Lock()
		seen[w] = true
		distinct := len(seen)
		mu.Unlock()
		if distinct >= 2 {
			release.Do(func() { close(second) })
		}
		select {
		case <-second:
		case <-time.After(10 * time.Second):
			timedOut.Store(true)
			release.Do(func() { close(second) })
		}
	})
	if timedOut.Load() {
		t.Fatal("every Push of an 8-hub, 40,000-arc frontier came from one worker at workers=4")
	}
	if !slices.EqualFunc(got, want, func(a, b []graph.NodeID) bool { return slices.Equal(a, b) }) {
		t.Fatalf("claimed sets differ between workers=4 and workers=1 (%d vs %d rounds)", len(got), len(want))
	}
	if !slices.Equal(gotLog, wantLog) {
		t.Fatalf("round log at workers=4 %+v, at workers=1 %+v", gotLog, wantLog)
	}
	if len(want) != 4 || len(want[0]) != hubs*leaves || len(want[1]) != 1 || len(want[2]) != 1 || len(want[3]) != 0 {
		t.Fatalf("fixture: %d rounds, want 4 claiming %d, 1, 1, 0", len(want), hubs*leaves)
	}
}

func TestRoundLogRecordsDirections(t *testing.T) {
	g := lowDiameterGraph()
	e := bsp.NewEngine(g, 4)
	defer e.Close()
	dist := make([]int32, g.NumNodes())
	for i := range dist {
		dist[i] = -1
	}
	dist[0] = 0
	e.Seed(0)
	for d := int32(1); e.FrontierLen() > 0; d++ {
		dd := d
		e.Step(bsp.StepSpec{
			Push: func(_ int, u, v graph.NodeID) bool { return atomicCAS32(dist, v, -1, dd) },
			Pull: func(_ int, v, u graph.NodeID) bool { dist[v] = dd; return true },
		})
	}
	stats := e.Stats()
	if stats.PullRounds == 0 || stats.PullRounds == stats.Rounds {
		t.Fatalf("hybrid on G(n,p) should mix directions: %d pull of %d rounds",
			stats.PullRounds, stats.Rounds)
	}
	log := e.RoundLog()
	if len(log) != stats.Rounds {
		t.Fatalf("round log has %d entries for %d rounds", len(log), stats.Rounds)
	}
	pulls := 0
	for _, rs := range log {
		switch rs.Dir {
		case bsp.DirPull:
			pulls++
		case bsp.DirPush:
		default:
			t.Fatalf("round has unset direction: %+v", rs)
		}
	}
	if pulls != stats.PullRounds {
		t.Fatalf("log records %d pull rounds, stats %d", pulls, stats.PullRounds)
	}
	// Reset must drop the trace along with the traversal state.
	e.Reset()
	if len(e.RoundLog()) != 0 {
		t.Fatal("Reset must clear the round log")
	}
}

func TestEngineSeedAndReset(t *testing.T) {
	g := graph.Path(10)
	e := bsp.NewEngine(g, 2)
	defer e.Close()
	if !e.Seed(3) {
		t.Fatal("first Seed must add")
	}
	if e.Seed(3) {
		t.Fatal("second Seed of the same node must be a no-op")
	}
	if e.FrontierLen() != 1 || e.VisitedCount() != 1 {
		t.Fatal("seed bookkeeping wrong")
	}
	e.Reset()
	if e.FrontierLen() != 0 || e.VisitedCount() != 0 {
		t.Fatal("Reset must clear frontier and visited")
	}
	if !e.Seed(3) {
		t.Fatal("Seed after Reset must add again")
	}
}

func TestEngineGatherStepCandidates(t *testing.T) {
	// Star: frontier = {hub}; the candidates must be exactly the leaves
	// (each probed once), and the gather verdict controls the next frontier.
	g := graph.Star(6) // hub 0, leaves 1..5
	e := bsp.NewEngine(g, 2)
	defer e.Close()
	e.SetFrontier([]graph.NodeID{0})
	var calls []graph.NodeID
	rs := e.GatherStep(func(_ int, v graph.NodeID) bool {
		calls = append(calls, v)
		return v%2 == 1
	})
	if len(calls) != 5 {
		t.Fatalf("gather called %d times, want 5 (the leaves)", len(calls))
	}
	seen := map[graph.NodeID]bool{}
	for _, v := range calls {
		if v == 0 || seen[v] {
			t.Fatalf("gather offered %v", calls)
		}
		seen[v] = true
	}
	if rs.Claimed != 3 || e.FrontierLen() != 3 {
		t.Fatalf("odd leaves 1,3,5 should form the next frontier, got %v", e.Frontier())
	}
}

func TestEngineGatherStepDenseFrontierUsesPull(t *testing.T) {
	// With the whole node set in the frontier the gather step must run
	// bottom-up and still offer every non-isolated node exactly once.
	g := graph.Mesh(50, 50)
	e := bsp.NewEngine(g, 4)
	defer e.Close()
	all := make([]graph.NodeID, g.NumNodes())
	for i := range all {
		all[i] = graph.NodeID(i)
	}
	e.SetFrontier(all)
	counts := make([]int32, g.NumNodes())
	rs := e.GatherStep(func(_ int, v graph.NodeID) bool {
		atomicAdd32(counts, v)
		return false
	})
	if rs.Dir != bsp.DirPull {
		t.Fatalf("dense gather ran %v, want pull", rs.Dir)
	}
	for v, c := range counts {
		if c != 1 {
			t.Fatalf("node %d gathered %d times", v, c)
		}
	}
	if e.FrontierLen() != 0 {
		t.Fatal("all-false gather must empty the frontier")
	}
}

func TestBitmapSparseRoundTrip(t *testing.T) {
	const n = 1000
	b := bsp.NewBitmap(n)
	members := []graph.NodeID{0, 1, 63, 64, 65, 127, 500, 999}
	for _, u := range members {
		b.Set(u)
	}
	for _, u := range members {
		if !b.Get(u) {
			t.Fatalf("bit %d lost", u)
		}
	}
	if b.Get(2) || b.Get(998) {
		t.Fatal("spurious bits")
	}
	if b.Count() != len(members) {
		t.Fatalf("count %d want %d", b.Count(), len(members))
	}
	sparse := b.ToSparse(nil)
	if len(sparse) != len(members) {
		t.Fatalf("ToSparse %v", sparse)
	}
	for i, u := range sparse {
		if u != members[i] {
			t.Fatalf("ToSparse order: got %v want %v", sparse, members)
		}
	}
	// Round-trip through FromSparse with sparse clearing of the old set.
	next := []graph.NodeID{7, 64, 900}
	b.FromSparse(next, sparse)
	if b.Count() != len(next) {
		t.Fatalf("after FromSparse count %d want %d", b.Count(), len(next))
	}
	got := b.ToSparse(nil)
	for i, u := range got {
		if u != next[i] {
			t.Fatalf("round trip got %v want %v", got, next)
		}
	}
	if !b.SetAtomic(8) || b.SetAtomic(8) {
		t.Fatal("SetAtomic first-set detection wrong")
	}
}

// Small helpers keeping the closures above terse.

func atomicCAS32(a []int32, i graph.NodeID, old, new int32) bool {
	return atomic.CompareAndSwapInt32(&a[i], old, new)
}

func atomicAdd32(a []int32, i graph.NodeID) {
	atomic.AddInt32(&a[i], 1)
}
