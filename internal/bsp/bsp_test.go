package bsp_test

import (
	"sync/atomic"
	"testing"

	"repro/internal/bsp"
	"repro/internal/graph"
)

// engineBFS runs Engine.BFS — the canonical claim-style traversal — in the
// given direction mode and returns the distance array.
func engineBFS(g *graph.Graph, src graph.NodeID, workers int, dir bsp.Direction) ([]int32, bsp.Stats) {
	dist := make([]int32, g.NumNodes())
	e := bsp.NewEngine(g, workers)
	defer e.Close()
	e.SetDirection(dir)
	e.BFS(src, dist)
	return dist, e.Stats()
}

func TestEngineBFSMatchesSequential(t *testing.T) {
	graphs := []*graph.Graph{
		graph.Mesh(30, 30),
		graph.BarabasiAlbert(3000, 3, 1),
		graph.Path(500),
		graph.Cycle(100),
	}
	for _, g := range graphs {
		want := g.BFS(0)
		for _, workers := range []int{1, 2, 4, 0} {
			for _, dir := range []bsp.Direction{bsp.DirAuto, bsp.DirPush, bsp.DirPull} {
				got, _ := engineBFS(g, 0, workers, dir)
				for u := range want {
					if got[u] != want[u] {
						t.Fatalf("workers=%d dir=%v: dist[%d]=%d want %d", workers, dir, u, got[u], want[u])
					}
				}
			}
		}
	}
}

func TestEngineRoundsEqualEccentricity(t *testing.T) {
	g := graph.Path(100)
	_, stats := engineBFS(g, 0, 4, bsp.DirAuto)
	// ecc(0) = 99 expansion rounds plus the final round that discovers the
	// frontier is exhausted, exactly as a BSP execution would.
	if stats.Rounds != 100 {
		t.Fatalf("BFS on P100 from an end should take 100 rounds, got %d", stats.Rounds)
	}
}

func TestEngineForcedPushMessagesEqualArcs(t *testing.T) {
	// A full top-down BFS scans every arc of a connected graph exactly once
	// per endpoint activation: total messages = sum of degrees = 2m. The
	// hybrid mode may only improve on that.
	g := graph.Mesh(20, 20)
	_, push := engineBFS(g, 0, 4, bsp.DirPush)
	if push.Messages != int64(g.NumArcs()) {
		t.Fatalf("forced-push messages=%d want %d", push.Messages, g.NumArcs())
	}
	if push.PullRounds != 0 {
		t.Fatalf("forced push ran %d pull rounds", push.PullRounds)
	}
	_, auto := engineBFS(g, 0, 4, bsp.DirAuto)
	if auto.Messages > push.Messages {
		t.Fatalf("hybrid messages=%d exceed forced-push %d", auto.Messages, push.Messages)
	}
}

func TestEngineEmptyFrontierStepIsNoop(t *testing.T) {
	g := graph.Path(5)
	e := bsp.NewEngine(g, 2)
	defer e.Close()
	rs := e.Step(bsp.StepSpec{Adopt: func(int, graph.NodeID, graph.NodeID) { t.Error("Adopt called") }})
	if rs.Arcs != 0 || rs.Claimed != 0 || e.Stats().Rounds != 0 {
		t.Fatal("empty frontier should be a no-op")
	}
}

func TestEngineNoDuplicateClaims(t *testing.T) {
	// Maximal contention: every leaf of a large star offers itself to the
	// hub in the same superstep, largest id first, so the hub's parent word
	// is lowered again and again after the first offer has gathered it. The
	// frontier's 20,000 arcs exceed the push threshold, so the workers take
	// it in five blocks and contend for the word. The hub must be gathered
	// and adopted exactly once, by the smallest leaf.
	const leaves = 20000
	g := graph.Star(leaves + 1)
	for _, dir := range []bsp.Direction{bsp.DirPush, bsp.DirPull} {
		e := bsp.NewEngine(g, 8)
		e.SetDirection(dir)
		for i := leaves; i >= 1; i-- {
			e.Seed(graph.NodeID(i))
		}
		var adopted []graph.NodeID
		rs := e.Step(bsp.StepSpec{Adopt: func(_ int, v, parent graph.NodeID) {
			adopted = append(adopted, v, parent) // one claim, so one call
		}})
		if rs.Claimed != 1 || e.FrontierLen() != 1 || e.Frontier()[0] != 0 {
			t.Fatalf("%v: hub should be claimed exactly once, got %v", dir, e.Frontier())
		}
		if len(adopted) != 2 || adopted[0] != 0 || adopted[1] != 1 {
			t.Fatalf("%v: Adopt calls (v, parent) = %v, want one (0, 1)", dir, adopted)
		}
		if dir == bsp.DirPush && rs.Arcs != leaves {
			t.Fatalf("arcs=%d want %d", rs.Arcs, leaves)
		}
		e.Close()
	}
}

func TestWorkersDefault(t *testing.T) {
	if bsp.Workers(0) < 1 {
		t.Fatal("Workers(0) must be positive")
	}
	if bsp.Workers(3) != 3 {
		t.Fatal("Workers(3) != 3")
	}
}

func TestStatsAdd(t *testing.T) {
	a := bsp.Stats{Rounds: 2, Messages: 10, MaxFrontier: 5, PullRounds: 1}
	a.Add(bsp.Stats{Rounds: 3, Messages: 7, MaxFrontier: 9, PullRounds: 2})
	if a.Rounds != 5 || a.Messages != 17 || a.MaxFrontier != 9 || a.PullRounds != 3 {
		t.Fatalf("Add wrong: %+v", a)
	}
}

// For is Pool.Claim in blocks of SeqThreshold: every index lands in
// exactly one block, and every block starts at a multiple of 64, so a
// block's plain bitmap writes (a pull round's visited marks) touch words
// no other block does.
func TestEngineFor(t *testing.T) {
	if bsp.SeqThreshold%64 != 0 {
		t.Fatalf("SeqThreshold %d is not a multiple of 64", bsp.SeqThreshold)
	}
	for _, workers := range []int{1, 4, 8} {
		e := bsp.NewEngine(graph.Path(2), workers)
		for _, n := range []int{0, 1, 63, 64, 2048, 2049, 70_001} {
			hit := make([]int32, n)
			var misaligned atomic.Int32
			e.For(n, func(_, lo, hi int) {
				if lo%64 != 0 {
					misaligned.Add(1)
				}
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&hit[i], 1)
				}
			})
			if misaligned.Load() != 0 {
				t.Fatalf("workers=%d n=%d: %d blocks start off a multiple of 64", workers, n, misaligned.Load())
			}
			for i, h := range hit {
				if h != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", workers, n, i, h)
				}
			}
		}
		e.Close()
	}
}

func BenchmarkEngineBFSMesh(b *testing.B) {
	g := graph.Mesh(300, 300)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		engineBFS(g, 0, 0, bsp.DirAuto)
	}
}

func BenchmarkEngineBFSSocial(b *testing.B) {
	g := graph.BarabasiAlbert(50000, 8, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		engineBFS(g, 0, 0, bsp.DirAuto)
	}
}
