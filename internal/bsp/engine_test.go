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
	// degree sums, which are schedule-independent; the observer's per-round
	// deltas (direction, arcs, frontier) must be identical whatever the
	// worker count.
	g := lowDiameterGraph()
	deltas := func(workers int) []bsp.Stats {
		e := bsp.NewEngine(g, workers)
		defer e.Close()
		var log []bsp.Stats
		e.SetObserver(func(d bsp.Stats) { log = append(log, d) })
		e.BFS(0, make([]int32, g.NumNodes()))
		return log
	}
	ref := deltas(1)
	for _, workers := range []int{2, 5} {
		if got := deltas(workers); !slices.Equal(got, ref) {
			t.Fatalf("workers=%d: per-round deltas %+v, at one worker %+v", workers, got, ref)
		}
	}
}

// A push round is sized and split by frontier arcs, not frontier nodes:
// eight hubs carrying 40,000 arcs between them go to the pool (eight nodes
// never did), one hub a claim, at least two workers taking claims, and what
// is claimed — and by whom — does not depend on who scanned what. A two-node tail behind one leaf adds a pooled
// round with a single claim and then an inline one, so scratch left over in
// a worker that claimed nothing would resurface as a phantom frontier.
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
	// sorted frontier after every round and every node's parent.
	run := func(workers int) ([][]graph.NodeID, []graph.NodeID, []bsp.RoundStat) {
		e := bsp.NewEngine(g, workers)
		defer e.Close()
		e.SetDirection(bsp.DirPush)
		parents := make([]graph.NodeID, g.NumNodes())
		for h := graph.NodeID(0); h < hubs; h++ {
			parents[h] = h
			e.Seed(h)
		}
		var (
			fronts [][]graph.NodeID
			log    []bsp.RoundStat
		)
		for e.FrontierLen() > 0 {
			log = append(log, e.Step(bsp.StepSpec{Adopt: func(_ int, v, parent graph.NodeID) { parents[v] = parent }}))
			front := slices.Clone(e.Frontier())
			slices.Sort(front)
			fronts = append(fronts, front)
		}
		return fronts, parents, log
	}

	// The hubs' round: 40,000 arcs, so a claim is one hub, and the claims
	// reach a second worker. Whichever worker scans first holds its block
	// until another has shown up, so the test does not depend on the pool
	// waking before the caller has taken every block on a box with one core
	// to spare.
	e := bsp.NewEngine(g, 4)
	defer e.Close()
	for h := graph.NodeID(0); h < hubs; h++ {
		e.Seed(h)
	}
	block := e.PushBlock()
	if block != 1 {
		t.Fatalf("a claim of the hubs' push round is %d of the %d hubs, want 1", block, hubs)
	}
	var (
		mu       sync.Mutex
		seen     = map[int]bool{}
		second   = make(chan struct{})
		release  sync.Once
		timedOut atomic.Bool
		scanned  [hubs]atomic.Int32
	)
	e.ClaimBlocks(hubs, block, func(w, lo, hi int) {
		for i := lo; i < hi; i++ {
			scanned[i].Add(1)
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
		t.Fatal("every block of an 8-hub, 40,000-arc frontier went to one worker at workers=4")
	}
	for h := range scanned {
		if c := scanned[h].Load(); c != 1 {
			t.Fatalf("hub %d was handed out %d times", h, c)
		}
	}

	want, wantParents, wantLog := run(1)
	got, gotParents, gotLog := run(4)
	if !slices.EqualFunc(got, want, func(a, b []graph.NodeID) bool { return slices.Equal(a, b) }) {
		t.Fatalf("claimed sets differ between workers=4 and workers=1 (%d vs %d rounds)", len(got), len(want))
	}
	if !slices.Equal(gotParents, wantParents) {
		t.Fatal("parents differ between workers=4 and workers=1")
	}
	if !slices.Equal(gotLog, wantLog) {
		t.Fatalf("round stats at workers=4 %+v, at workers=1 %+v", gotLog, wantLog)
	}
	if len(want) != 4 || len(want[0]) != hubs*leaves || len(want[1]) != 1 || len(want[2]) != 1 || len(want[3]) != 0 {
		t.Fatalf("fixture: %d rounds, want 4 claiming %d, 1, 1, 0", len(want), hubs*leaves)
	}
}

// The observer is the engine's round log: every superstep reaches it as one
// round, the bottom-up ones flagged, and the flags add up to the Stats.
func TestRoundLogRecordsDirections(t *testing.T) {
	g := lowDiameterGraph()
	e := bsp.NewEngine(g, 4)
	defer e.Close()
	rounds, pulls := 0, 0
	e.SetObserver(func(d bsp.Stats) {
		rounds += d.Rounds
		pulls += d.PullRounds
		if d.Rounds != 1 || d.PullRounds > 1 {
			t.Fatalf("observer delta is not one round: %+v", d)
		}
	})
	e.BFS(0, make([]int32, g.NumNodes()))
	stats := e.Stats()
	if stats.PullRounds == 0 || stats.PullRounds == stats.Rounds {
		t.Fatalf("hybrid on G(n,p) should mix directions: %d pull of %d rounds",
			stats.PullRounds, stats.Rounds)
	}
	if rounds != stats.Rounds || pulls != stats.PullRounds {
		t.Fatalf("observer saw %d rounds, %d pull; stats %d, %d", rounds, pulls, stats.Rounds, stats.PullRounds)
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

func TestEngineStepFromUnvisitedFrontier(t *testing.T) {
	// The ANF round: after a Reset, with every node in the frontier and none
	// visited, a step claims every node exactly once, frontier nodes
	// included, in either direction; the dense frontier makes the hybrid
	// choose pull. A second Reset and the same frontier claim them all
	// again.
	g := graph.Mesh(50, 50)
	all := make([]graph.NodeID, g.NumNodes())
	for i := range all {
		all[i] = graph.NodeID(i)
	}
	for _, dir := range []bsp.Direction{bsp.DirAuto, bsp.DirPush, bsp.DirPull} {
		e := bsp.NewEngine(g, 4)
		e.SetDirection(dir)
		for pass := 0; pass < 2; pass++ {
			e.Reset()
			e.SetFrontier(all)
			counts := make([]int32, g.NumNodes())
			rs := e.Step(bsp.StepSpec{Adopt: func(_ int, v, _ graph.NodeID) { atomicAdd32(counts, v) }})
			want := dir
			if dir == bsp.DirAuto {
				want = bsp.DirPull
			}
			if rs.Dir != want {
				t.Fatalf("%v pass %d: step ran %v, want %v", dir, pass, rs.Dir, want)
			}
			for v, c := range counts {
				if c != 1 {
					t.Fatalf("%v pass %d: node %d adopted %d times", dir, pass, v, c)
				}
			}
			if rs.Claimed != g.NumNodes() || e.VisitedCount() != g.NumNodes() {
				t.Fatalf("%v pass %d: %d claimed, %d visited, want all %d", dir, pass, rs.Claimed, e.VisitedCount(), g.NumNodes())
			}
		}
		e.Close()
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
}

func atomicAdd32(a []int32, i graph.NodeID) {
	atomic.AddInt32(&a[i], 1)
}
