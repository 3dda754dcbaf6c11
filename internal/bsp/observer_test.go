package bsp_test

import (
	"testing"

	"repro/internal/bsp"
	"repro/internal/graph"
)

// TestEngineObserverDeltasSumToStats pins the observer contract for the
// unweighted engine: the deltas emitted at superstep barriers, accumulated
// with Stats.Add, must reconstruct the engine's own post-hoc totals.
func TestEngineObserverDeltasSumToStats(t *testing.T) {
	g := lowDiameterGraph()
	e := bsp.NewEngine(g, 4)
	defer e.Close()
	e.SetDirection(bsp.DirAuto)
	var seen bsp.Stats
	var emissions int
	e.SetObserver(func(d bsp.Stats) {
		seen.Add(d)
		emissions++
	})
	e.BFS(0, make([]int32, g.NumNodes()))
	want := e.Stats()
	if seen != want {
		t.Fatalf("accumulated observer deltas %+v != engine stats %+v", seen, want)
	}
	if emissions != want.Rounds {
		t.Fatalf("observer fired %d times for %d rounds", emissions, want.Rounds)
	}
	if want.PullRounds == 0 {
		t.Fatal("hybrid never pulled; the test graph no longer exercises both directions")
	}
}

// TestWeightedObserverDeltasSumToStats is the delta-stepping counterpart:
// per-bucket deltas accumulated with Stats.Add reconstruct the engine
// totals, and exactly one delta fires per settled bucket.
func TestWeightedObserverDeltasSumToStats(t *testing.T) {
	g := graph.RoadLike(25, 25, 0.4, 7)
	wg := randomWeightedGraph(t, g, 3, 20)
	e := bsp.NewWeightedEngine(wg, 4, 0)
	defer e.Close()
	var seen bsp.Stats
	var emissions int
	e.SetObserver(func(d bsp.Stats) {
		if d.Buckets != 1 {
			t.Errorf("bucket delta carries Buckets=%d, want 1", d.Buckets)
		}
		seen.Add(d)
		emissions++
	})
	dist := make([]int64, wg.NumNodes())
	e.SSSP(0, dist)
	want := e.Stats()
	if seen != want {
		t.Fatalf("accumulated observer deltas %+v != engine stats %+v", seen, want)
	}
	if emissions != want.Buckets {
		t.Fatalf("observer fired %d times for %d buckets", emissions, want.Buckets)
	}
	if want.Buckets == 0 {
		t.Fatal("SSSP settled no buckets; the test graph is degenerate")
	}
}
