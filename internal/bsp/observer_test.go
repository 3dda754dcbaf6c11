package bsp_test

import (
	"testing"

	"repro/internal/bsp"
)

// TestEngineObserverDeltasSumToStats pins the observer contract: the deltas emitted at superstep barriers, accumulated
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
