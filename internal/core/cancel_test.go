package core

// Cancellation semantics of the build entry points: a cancelled context
// aborts at the next superstep barrier (the oracle's APSP and weighted
// iFUB: before the next source) and surfaces ctx.Err(), and
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
	"repro/internal/quotient"
)

func TestBuildEntryPointsHonorCancelledContext(t *testing.T) {
	g := graph.Mesh(40, 40)
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
		{"TauForTargetClusters", func() error {
			_, _, err := TauForTargetClusters(ctx, g, 40, 0.2, Options{Seed: 1})
			return err
		}},
		{"DiameterFromClustering", func() error { _, err := DiameterFromClustering(ctx, cl, 0); return err }},
	}
	for _, c := range cases {
		if err := c.run(); !errors.Is(err, context.Canceled) {
			t.Errorf("%s with cancelled ctx: err = %v, want context.Canceled", c.name, err)
		}
	}
}

// countdownCtx is a context whose Err reports cancellation from its
// (left+1)-th call on, counting the calls: a cancel that lands exactly
// between two levels of a sweep.
type countdownCtx struct {
	context.Context
	left, calls int
}

func (c *countdownCtx) Err() error {
	c.calls++
	if c.left--; c.left < 0 {
		return context.Canceled
	}
	return nil
}

// KCenter's radius sweep checks its context once before every level and
// stops at the first cancelled check; the exported EvalCenters, which takes
// no context, sweeps to the end.
func TestKCenterRadiusSweepStopsBetweenLevels(t *testing.T) {
	g := graph.Path(100) // 99 levels from node 0
	live := &countdownCtx{Context: t.Context(), left: 1 << 30}
	if r, err := evalCenters(live, g, []graph.NodeID{0}); err != nil || r != 99 {
		t.Fatalf("uncancelled sweep: radius %d, err %v; want 99, nil", r, err)
	}
	if live.calls != 99 {
		t.Fatalf("uncancelled sweep checked its context %d times, want once a level (99)", live.calls)
	}
	cut := &countdownCtx{Context: t.Context(), left: 10}
	if _, err := evalCenters(cut, g, []graph.NodeID{0}); !errors.Is(err, context.Canceled) {
		t.Fatalf("sweep cancelled after 10 levels: err = %v, want context.Canceled", err)
	}
	if cut.calls != 11 {
		t.Fatalf("sweep cancelled after 10 levels checked %d times, want 11", cut.calls)
	}
	if r, err := EvalCenters(g, []graph.NodeID{0}); err != nil || r != 99 {
		t.Fatalf("EvalCenters: radius %d, err %v; want 99, nil", r, err)
	}
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
// of 1,089 clusters, at least 18 blocks over the two passes: the workers
// must see it before their next table row, reset row or source, so all but
// a few blocks never report. A panicking Observer, on any worker,
// surfaces on the caller and leaves no goroutine behind either.
func TestOracleFromClusteringLeavesNoGoroutines(t *testing.T) {
	cl := voronoi(graph.Mesh(40, 40), 17*rowBlock+1, 1)
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

	// An Observer runs on every worker; its panic must reach the caller,
	// where a serving layer can recover it, and not end the process.
	panicking := Options{Workers: 4, Observer: func(bsp.Stats) { panic("observer panic") }}
	got := func() (r any) {
		defer func() { r = recover() }()
		_, _ = OracleFromClustering(context.Background(), cl, panicking)
		return nil
	}()
	if got != "observer panic" {
		t.Fatalf("recovered %v, want the observer's panic", got)
	}
	settled("panicking observer")
}

// ClusterContext and CLUSTER2's second phase release their engine's pool
// on every exit path: a panic in a round (here the Observer's, on the
// driving goroutine, once the pool is up) must not leave its workers
// behind.
func TestClusteringClosesEngineOnPanic(t *testing.T) {
	g := graph.Mesh(100, 100)
	base := runtime.NumGoroutine()
	for name, build := range map[string]func(Options) error{
		"ClusterContext": func(opt Options) error {
			_, err := ClusterContext(context.Background(), g, 8, opt)
			return err
		},
		"cluster2With": func(opt Options) error {
			_, err := cluster2With(context.Background(), g, 5, opt)
			return err
		},
	} {
		var rounds atomic.Int32
		opt := Options{Workers: 4, Seed: 1, Observer: func(bsp.Stats) {
			if rounds.Add(1) == 3 {
				panic("observer panic")
			}
		}}
		got := func() (r any) {
			defer func() { r = recover() }()
			_ = build(opt)
			return nil
		}()
		if got != "observer panic" {
			t.Fatalf("%s: recovered %v, want the observer's panic", name, got)
		}
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > base {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d goroutines, want the baseline %d: the engine's pool leaked", name, runtime.NumGoroutine(), base)
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// The observer sees one delta per completed block of either pass — a block
// of up to rowBlock table rows and I rows, then one of up to as many
// sources of R — and the deltas add up to exactly the build's APSPStats, so
// the live counters behind /builds end at the oracle's own cost.
func TestOracleFromClusteringObserverDeltasSumToAPSPStats(t *testing.T) {
	cl := voronoi(graph.RoadLike(30, 30, 0.4, 5), 5*rowBlock+7, 2)
	_, wq, err := quotient.BuildWeighted(cl.G, cl.Owner, cl.Dist, cl.NumClusters())
	if err != nil {
		t.Fatal(err)
	}
	wov, hov := overlays(wq)
	set, rest := wov.Split()
	blocks := func(n int) int { return (n + rowBlock - 1) / rowBlock }
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
	items := tableRows(wov) + tableRows(hov) + len(set)
	if want := blocks(items) + blocks(len(rest)); deltas != want {
		t.Fatalf("%d deltas for %d blocks of table rows and resets and %d of sources", deltas, blocks(items), blocks(len(rest)))
	}
	if got := o.APSPStats(); sum != got || got.Relaxations == 0 || got.Messages != got.Relaxations || got.Buckets == 0 ||
		got.Rounds != tableRows(wov)+tableRows(hov) {
		t.Fatalf("deltas sum to %+v, APSPStats is %+v, with %d + %d core searches", sum, got, tableRows(wov), tableRows(hov))
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
