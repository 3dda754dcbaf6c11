package mr

import (
	"context"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
)

// The MR execution of CLUSTER(τ) runs the same schedule with the same coins
// as core.ClusterContext, and coverage per round does not depend on which
// contender wins a node — so the two must activate the same centers in the
// same order, not merely the same number of them. The accounting columns
// pin the selection and growth rounds the schedule charges to the engine.
func TestMRClusterMatchesCoreStructure(t *testing.T) {
	mesh, road := graph.Mesh(60, 60), graph.RoadLike(50, 50, 0.4, 3)
	for _, tc := range []struct {
		name            string
		g               *graph.Graph
		tau             int
		seed            uint64
		batches, rounds int
		shuffled        int64
	}{
		{"mesh/11", mesh, 1, 11, 4, 13, 11821},
		{"mesh/12", mesh, 2, 12, 3, 9, 11019},
		{"road/5", road, 2, 5, 3, 9, 6652},
		{"road/6", road, 1, 6, 4, 13, 7483},
	} {
		ref, err := core.ClusterContext(context.Background(), tc.g, tc.tau, core.Options{Seed: tc.seed, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		e := NewEngine(Config{})
		s, batches, err := e.Cluster(tc.g, tc.tau, tc.seed)
		if err != nil {
			t.Fatal(err)
		}
		if batches != ref.Batches {
			t.Errorf("%s: MR batches %d vs core %d", tc.name, batches, ref.Batches)
		}
		centers := make([]graph.NodeID, ref.NumClusters())
		for i := range centers {
			centers[i] = graph.None
		}
		for u, o := range s.Owner {
			if o < 0 || int(o) >= len(centers) {
				t.Fatalf("%s: node %d in cluster %d of %d", tc.name, u, o, len(centers))
			}
			if s.Dist[u] == 0 {
				centers[o] = graph.NodeID(u)
			}
		}
		if !slices.Equal(centers, ref.Centers) {
			t.Errorf("%s: MR centers differ from core's\n mr   %v\n core %v", tc.name, centers, ref.Centers)
		}
		if batches != tc.batches || e.Rounds() != tc.rounds || e.TotalShuffled() != tc.shuffled {
			t.Errorf("%s: batches/rounds/shuffled %d/%d/%d, pinned %d/%d/%d", tc.name,
				batches, e.Rounds(), e.TotalShuffled(), tc.batches, tc.rounds, tc.shuffled)
		}
	}
}

func TestMRClusterPartitionConsistent(t *testing.T) {
	g := graph.RoadLike(18, 18, 0.4, 3)
	e := NewEngine(Config{})
	s, _, err := e.Cluster(g, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Every non-center node must have a same-cluster neighbor one step
	// closer (growth-tree consistency).
	for u := 0; u < g.NumNodes(); u++ {
		if s.Dist[u] == 0 {
			continue
		}
		ok := false
		for _, v := range g.Neighbors(graph.NodeID(u)) {
			if s.Owner[v] == s.Owner[u] && s.Dist[v] == s.Dist[u]-1 {
				ok = true
				break
			}
		}
		if !ok {
			t.Fatalf("node %d (cluster %d, dist %d) has no predecessor", u, s.Owner[u], s.Dist[u])
		}
	}
}

func TestMRClusterRoundsLinearInGrowthSteps(t *testing.T) {
	// Section 5 / Lemma 3: with ML = Ω(nᵋ) the whole decomposition takes
	// O(R) rounds. Our simulator charges one round per growth step plus one
	// selection round per batch.
	g := graph.Mesh(20, 20)
	e := NewEngine(Config{})
	_, batches, err := e.Cluster(g, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	rounds := e.Rounds()
	if rounds > 4*batches+200 {
		t.Fatalf("rounds=%d implausibly large for %d batches", rounds, batches)
	}
	if rounds < batches {
		t.Fatalf("rounds=%d below batch count %d", rounds, batches)
	}
}

func TestMRClusterRespectsML(t *testing.T) {
	// A tiny ML must trip on the contended-node groups during growth.
	g := graph.Star(50)
	e := NewEngine(Config{ML: 1})
	// The hub receives many simultaneous proposals in one round; with
	// tau=1 on a 50-node star the algorithm may finish before any group
	// exceeds 1... use a tighter construction: grow from all leaves.
	s := NewGrowState(g.NumNodes(), []graph.NodeID{1, 2, 3})
	if _, err := e.GrowStep(g, s); err == nil {
		t.Fatal("three proposals for the hub must exceed ML=1")
	}
}

func TestMRClusterErrors(t *testing.T) {
	e := NewEngine(Config{})
	if _, _, err := e.Cluster(graph.Path(5), 0, 1); err == nil {
		t.Fatal("tau=0 should fail")
	}
}

func TestMRClusterTinyGraphSingletons(t *testing.T) {
	g := graph.Path(5)
	e := NewEngine(Config{})
	s, _, err := e.Cluster(g, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int64]bool{}
	for _, o := range s.Owner {
		if seen[o] {
			t.Fatal("tiny graph should be all singleton clusters")
		}
		seen[o] = true
	}
}
