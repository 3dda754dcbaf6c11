package core

// Cancellation semantics of the build entry points: a cancelled context
// aborts at the next superstep/bucket barrier and surfaces ctx.Err(), and
// the checks never change what an uncancelled run computes.

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/bsp"
	"repro/internal/graph"
)

func TestBuildEntryPointsHonorCancelledContext(t *testing.T) {
	g := graph.Mesh(40, 40)
	wg := weightedFixture(t, g)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	cases := []struct {
		name string
		run  func() error
	}{
		{"ClusterContext", func() error { _, err := ClusterContext(ctx, g, 4, Options{Seed: 1}); return err }},
		{"Cluster2Context", func() error { _, err := Cluster2Context(ctx, g, 4, Options{Seed: 1}); return err }},
		{"BuildOracle", func() error { _, err := BuildOracle(ctx, g, 2, false, Options{Seed: 1}); return err }},
		{"ApproxDiameter", func() error {
			_, err := ApproxDiameter(ctx, g, DiameterOptions{Options: Options{Seed: 1}})
			return err
		}},
		{"KCenter", func() error { _, err := KCenter(ctx, g, 8, Options{Seed: 1}); return err }},
		{"WeightedClusterContext", func() error {
			_, err := WeightedClusterContext(ctx, wg, 4, Options{Seed: 1})
			return err
		}},
	}
	for _, c := range cases {
		if err := c.run(); !errors.Is(err, context.Canceled) {
			t.Errorf("%s with cancelled ctx: err = %v, want context.Canceled", c.name, err)
		}
	}
}

func weightedFixture(t *testing.T, g *graph.Graph) *graph.Weighted {
	t.Helper()
	edges := g.EdgeList()
	ws := make([]int32, len(edges))
	for i := range ws {
		ws[i] = int32(1 + i%7)
	}
	wg, err := graph.NewWeighted(g.NumNodes(), edges, ws)
	if err != nil {
		t.Fatal(err)
	}
	return wg
}

// A cancel landing mid-build must be honored promptly — within the current
// round, not at build completion. The build is large enough that the
// cancel almost always lands mid-flight; if the machine is so fast that
// the build wins the race, the success return is accepted (the property
// under test is "cancel is honored when seen", not a wall-clock bound).
func TestBuildOracleCancelledMidBuildReturnsPromptly(t *testing.T) {
	g := graph.RoadLike(120, 120, 0.4, 3)
	ctx, cancel := context.WithCancel(context.Background())
	type result struct {
		o   *Oracle
		err error
	}
	done := make(chan result, 1)
	go func() {
		o, err := BuildOracle(ctx, g, 3, false, Options{Seed: 5, Workers: 2})
		done <- result{o, err}
	}()
	time.Sleep(2 * time.Millisecond)
	cancel()
	select {
	case r := <-done:
		if r.err != nil && !errors.Is(r.err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled (or a completed build)", r.err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("BuildOracle did not return within 30s of cancellation")
	}
}

// OracleFromClustering's APSP fan-out is the one go site in this package.
// Its goroutines must be gone when it returns, whether the build completes
// or is cancelled at a barrier mid-search; this count is their enforcer.
func TestOracleFromClusteringLeavesNoGoroutines(t *testing.T) {
	cl, err := Cluster(graph.Mesh(40, 40), 2, Options{Seed: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	settled := func(when string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > base {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d goroutines, want the baseline %d: leaked", when, runtime.NumGoroutine(), base)
			}
			time.Sleep(time.Millisecond)
		}
	}

	if _, err := OracleFromClustering(context.Background(), cl, Options{Workers: 4}); err != nil {
		t.Fatal(err)
	}
	settled("completed build")

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opt := Options{Workers: 4, Observer: func(bsp.Stats) { cancel() }} // first barrier of the first search
	if _, err := OracleFromClustering(ctx, cl, opt); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled build: err = %v, want context.Canceled", err)
	}
	settled("cancelled build")
}

// ClusterContext with a background context must produce exactly what the
// ctx-less entry point produces: the cancellation plumbing sits at
// existing barriers and never alters the deterministic schedule.
func TestClusterContextMatchesCluster(t *testing.T) {
	g := graph.RoadLike(40, 40, 0.4, 9)
	a, err := Cluster(g, 6, Options{Seed: 11, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := ClusterContext(context.Background(), g, 6, Options{Seed: 11, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if a.NumClusters() != b.NumClusters() {
		t.Fatalf("cluster counts differ: %d vs %d", a.NumClusters(), b.NumClusters())
	}
	for i := range a.Centers {
		if a.Centers[i] != b.Centers[i] {
			t.Fatalf("center %d differs: %d vs %d", i, a.Centers[i], b.Centers[i])
		}
	}
	for u := range a.Dist {
		if a.Dist[u] != b.Dist[u] {
			t.Fatalf("dist[%d] differs: %d vs %d", u, a.Dist[u], b.Dist[u])
		}
	}
}
