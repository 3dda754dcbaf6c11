package pbfs

import (
	"testing"

	"repro/internal/bsp"
	"repro/internal/graph"
)

func TestRunMatchesSequentialBFS(t *testing.T) {
	for _, g := range []*graph.Graph{
		graph.Mesh(25, 25),
		graph.BarabasiAlbert(2000, 3, 1),
		graph.Path(300),
	} {
		want := g.BFS(0)
		res, err := Run(g, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		for u := range want {
			if res.Dist[u] != want[u] {
				t.Fatalf("dist[%d]=%d want %d", u, res.Dist[u], want[u])
			}
		}
		if res.Ecc != g.Eccentricity(0) {
			t.Fatalf("ecc %d want %d", res.Ecc, g.Eccentricity(0))
		}
	}
}

func TestRunBoundsBracketDiameter(t *testing.T) {
	for _, g := range []*graph.Graph{
		graph.Mesh(20, 20),
		graph.RoadLike(20, 20, 0.4, 2),
		graph.Cycle(61),
	} {
		truth, _ := g.ExactDiameter(0)
		res, err := Run(g, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if res.Lower > truth || res.Upper < truth {
			t.Fatalf("bounds [%d, %d] do not bracket %d", res.Lower, res.Upper, truth)
		}
	}
}

func TestRunRoundsLinearInEccentricity(t *testing.T) {
	g := graph.Path(500)
	res, err := Run(g, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	// ecc + the final empty-frontier detection round.
	if res.Stats.Rounds != 500 {
		t.Fatalf("rounds=%d want 500", res.Stats.Rounds)
	}
	if res.Ecc != 499 {
		t.Fatalf("ecc=%d want 499", res.Ecc)
	}
}

func TestRunAggregateMessagesLinear(t *testing.T) {
	g := graph.Mesh(30, 30)
	// Forced top-down scans every arc of a connected graph exactly once per
	// endpoint activation: messages = 2m. The hybrid default may only
	// improve on that (pull rounds replace scans with cheaper probes).
	push, err := RunDirection(g, 0, 0, bsp.DirPush)
	if err != nil {
		t.Fatal(err)
	}
	if push.Stats.Messages != int64(g.NumArcs()) {
		t.Fatalf("forced-push messages=%d want %d (2m)", push.Stats.Messages, g.NumArcs())
	}
	res, err := Run(g, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Messages > push.Stats.Messages {
		t.Fatalf("hybrid messages=%d exceed top-down %d", res.Stats.Messages, push.Stats.Messages)
	}
}

func TestRunErrors(t *testing.T) {
	if _, err := Run(graph.NewBuilder(0).Build(), 0, 0); err == nil {
		t.Fatal("empty graph should fail")
	}
	if _, err := Run(graph.Path(3), 7, 0); err == nil {
		t.Fatal("source out of range should fail")
	}
	if _, err := Run(graph.Path(3), -1, 0); err == nil {
		t.Fatal("negative source should fail")
	}
}

func TestRunDisconnectedLeavesUnreached(t *testing.T) {
	b := graph.NewBuilder(6)
	b.AddEdge(0, 1)
	b.AddEdge(2, 3)
	g := b.Build()
	res, err := Run(g, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Dist[2] != -1 || res.Dist[3] != -1 {
		t.Fatal("nodes in other components must stay at -1")
	}
	if res.Ecc != 1 {
		t.Fatalf("ecc %d want 1", res.Ecc)
	}
}
