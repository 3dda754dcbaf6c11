package bsp_test

// Cancellation semantics of the two engines: a cancelled context stops the
// traversal at the next superstep barrier (the weighted search: before it
// leaves its source), drops the frontier so driver loops terminate, and
// surfaces the cause via Err — without ever perturbing the deterministic
// schedule of an uncancelled run (the checks sit at barriers that already
// exist).

import (
	"context"
	"errors"
	"testing"

	"repro/internal/bsp"
	"repro/internal/graph"
)

func TestEngineStepHonorsCancelledContext(t *testing.T) {
	g := graph.Mesh(30, 30)
	e := bsp.NewEngine(g, 2)
	defer e.Close()

	ctx, cancel := context.WithCancel(context.Background())
	e.SetContext(ctx)

	dist := make([]int32, g.NumNodes())
	for i := range dist {
		dist[i] = -1
	}
	dist[0] = 0
	e.Seed(0)
	spec := bsp.StepSpec{Adopt: func(_ int, v, _ graph.NodeID) { dist[v] = 1 }}

	// One live round works normally.
	if rs := e.Step(spec); rs.Claimed == 0 {
		t.Fatal("first superstep claimed nothing")
	}
	rounds := e.Stats().Rounds

	// After the cancel, the very next Step is a no-op: no round executed,
	// frontier dropped, Err reports the cause.
	cancel()
	if rs := e.Step(spec); rs.Frontier != 0 || rs.Claimed != 0 || rs.Arcs != 0 {
		t.Fatalf("cancelled Step did work: %+v", rs)
	}
	if got := e.Stats().Rounds; got != rounds {
		t.Fatalf("cancelled Step recorded a round (%d -> %d)", rounds, got)
	}
	if e.FrontierLen() != 0 {
		t.Fatalf("cancelled Step left %d frontier nodes; driver loops would spin", e.FrontierLen())
	}
	if !errors.Is(e.Err(), context.Canceled) {
		t.Fatalf("Err() = %v, want context.Canceled", e.Err())
	}
}

func TestEngineNilContextNeverCancels(t *testing.T) {
	g := graph.Path(50)
	e := bsp.NewEngine(g, 1)
	defer e.Close()
	if e.Err() != nil {
		t.Fatalf("engine without SetContext reports %v", e.Err())
	}
}

func TestWeightedEngineSSSPStopsAfterCancel(t *testing.T) {
	wg := randomWeightedGraph(t, graph.Mesh(40, 40), 3, 25)

	// A pre-cancelled run terminates immediately and flags itself.
	e := bsp.NewWeightedEngine(wg, 1, 0)
	defer e.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e.SetContext(ctx)
	dist := make([]int64, wg.NumNodes())
	e.SSSP(0, dist)
	if e.Err() == nil {
		t.Fatal("cancelled SSSP left Err() nil")
	}
	reached := 0
	for _, d := range dist {
		if d != bsp.WInf {
			reached++
		}
	}
	// Only the source can have settled; the schedule never ran.
	if reached > 1 {
		t.Fatalf("cancelled SSSP still settled %d nodes", reached)
	}
}
