package core

// Cancellation semantics of the build entry points: a cancelled context
// aborts at the next superstep/bucket barrier (the oracle's APSP: before
// the next source) and surfaces ctx.Err(), and
// the checks never change what an uncancelled run computes.

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bsp"
	"repro/internal/graph"
)

func TestBuildEntryPointsHonorCancelledContext(t *testing.T) {
	g := graph.Mesh(40, 40)
	wg := weightedFixture(t, g)
	cl, err := ClusterContext(t.Context(), g, 4, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	cases := []struct {
		name string
		run  func() error
	}{
		{"ClusterContext", func() error { _, err := ClusterContext(ctx, g, 4, Options{Seed: 1}); return err }},
		{"Cluster2", func() error { _, err := Cluster2(ctx, g, 4, Options{Seed: 1}); return err }},
		{"BuildOracle", func() error { _, err := BuildOracle(ctx, g, 2, false, Options{Seed: 1}); return err }},
		{"ApproxDiameter", func() error {
			_, err := ApproxDiameter(ctx, g, DiameterOptions{Options: Options{Seed: 1}})
			return err
		}},
		{"KCenter", func() error { _, err := KCenter(ctx, g, 8, Options{Seed: 1}); return err }},
		{"WeightedCluster", func() error { _, err := WeightedCluster(ctx, wg, 4, Options{Seed: 1}); return err }},
		{"TauForTargetClusters", func() error {
			_, _, err := TauForTargetClusters(ctx, g, 40, 0.2, Options{Seed: 1})
			return err
		}},
		{"DiameterFromClustering", func() error { _, err := DiameterFromClustering(ctx, cl, 0); return err }},
		{"ApproxDiameterWeighted", func() error {
			_, err := ApproxDiameterWeighted(ctx, wg, 4, Options{Seed: 1})
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

// OracleFromClustering's APSP runs on a transient bsp.Pool, the only
// goroutines this package starts. They must be gone when it returns,
// whether the build completes or is cancelled; this count is their
// enforcer. The cancel is fired from the first block's delta on a quotient
// of 18 blocks: the workers must see it before their next source, so all
// but a few blocks never report.
func TestOracleFromClusteringLeavesNoGoroutines(t *testing.T) {
	cl := voronoi(graph.Mesh(40, 40), 17*graph.APSPBlock+1, 1)
	const blocks = 18
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
	var deltas atomic.Int64
	opt := Options{Workers: 4, Observer: func(bsp.Stats) { deltas.Add(1); cancel() }}
	if _, err := OracleFromClustering(ctx, cl, opt); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled build: err = %v, want context.Canceled", err)
	}
	if got := deltas.Load(); got >= blocks {
		t.Fatalf("cancelled at the first delta, yet %d of %d blocks completed: the workers ran on", got, blocks)
	}
	settled("cancelled build")
}

// The observer sees one delta per completed block, and the deltas add up to
// exactly the build's APSPStats — so the live counters behind /builds end
// at the oracle's own cost.
func TestOracleFromClusteringObserverDeltasSumToAPSPStats(t *testing.T) {
	cl := voronoi(graph.RoadLike(30, 30, 0.4, 5), 5*graph.APSPBlock+7, 2)
	var (
		mu     sync.Mutex
		sum    bsp.Stats
		deltas int
	)
	observe := func(d bsp.Stats) {
		mu.Lock()
		defer mu.Unlock()
		sum.Add(d)
		deltas++
	}
	o, err := OracleFromClustering(context.Background(), cl, Options{Workers: 3, Observer: observe})
	if err != nil {
		t.Fatal(err)
	}
	if deltas != 6 {
		t.Fatalf("%d deltas for 6 blocks", deltas)
	}
	if got := o.APSPStats(); sum != got || got.Relaxations == 0 || got.Messages != got.Relaxations || got.Buckets == 0 || got.Rounds == 0 {
		t.Fatalf("deltas sum to %+v, APSPStats is %+v", sum, got)
	}
}

// A live but never-cancelled context must produce exactly what a context
// that can never fire produces: the cancellation checks sit at existing
// barriers and never alter the deterministic schedule.
func TestClusterContextMatchesCluster(t *testing.T) {
	g := graph.RoadLike(40, 40, 0.4, 9)
	a, err := ClusterContext(context.Background(), g, 6, Options{Seed: 11, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := ClusterContext(t.Context(), g, 6, Options{Seed: 11, Workers: 4})
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
