package serve

// Tests for the build-lifecycle traces behind /builds: a controlled build
// walked through queued → running → done (with waiter high-water), a
// cancelled build landing in the recent ring with its error, a live oracle
// build observed mid-flight with nonzero engine counters, and every
// completed trace counting exactly its artifact's own cost.

import (
	"context"
	"testing"

	"repro/internal/bsp"
	"repro/internal/core"
	"repro/internal/graph"
)

func findTrace(infos []BuildTraceInfo, key string) *BuildTraceInfo {
	for i := range infos {
		if infos[i].Key == key {
			return &infos[i]
		}
	}
	return nil
}

// The full lifecycle with a controlled build: in-flight while running,
// waiter high-water tracks a second joiner, and the terminal snapshot in
// the recent ring carries timestamps and the done state.
func TestBuildTraceLifecycle(t *testing.T) {
	s := newBuildServer(t, Config{Workers: 2}, "g")
	key := Key{Graph: "g", Kind: "oracle", Tau: 1, Seed: 1, Algorithm: "cluster"}

	started := make(chan struct{})
	unblock := make(chan struct{})
	build := func(bctx context.Context, _ *Server, _ Key, _ *graph.Graph, _ *buildTrace) (artifact, error) {
		close(started)
		<-unblock
		return fakeArtifact(42), nil
	}

	first := make(chan error, 1)
	go func() {
		_, err := s.get(context.Background(), nil, key, build)
		first <- err
	}()
	<-started

	// Mid-build: exactly one in-flight trace, state "running" (the slot
	// was acquired — the closure is executing), key stamped, no recent yet.
	tr := findTrace(s.BuildTraces().InFlight, key.String())
	if tr == nil {
		t.Fatalf("no in-flight trace for %s", key)
	}
	if tr.State != BuildRunning {
		t.Fatalf("in-flight state = %q, want %q", tr.State, BuildRunning)
	}
	if tr.EnqueuedAt.IsZero() {
		t.Fatal("in-flight trace has zero enqueued_at")
	}
	if tr.Waiters != 1 || tr.WaiterHighWater != 1 {
		t.Fatalf("waiters = %d (high %d), want 1 (1)", tr.Waiters, tr.WaiterHighWater)
	}
	if n := len(s.BuildTraces().Recent); n != 0 {
		t.Fatalf("%d recent traces before any build finished", n)
	}

	// A second waiter joins the same key: high-water rises to 2.
	second := make(chan error, 1)
	go func() {
		_, err := s.get(context.Background(), nil, key, build)
		second <- err
	}()
	waitUntil(t, "waiter high-water of 2", func() bool {
		tr := findTrace(s.BuildTraces().InFlight, key.String())
		return tr != nil && tr.WaiterHighWater == 2
	})

	close(unblock)
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	if err := <-second; err != nil {
		t.Fatal(err)
	}

	// Terminal: the trace moved from in-flight to the recent ring with the
	// done state and a complete set of lifecycle timestamps.
	waitUntil(t, "trace to reach the recent ring", func() bool {
		return findTrace(s.BuildTraces().Recent, key.String()) != nil
	})
	bt := s.BuildTraces()
	if n := len(bt.InFlight); n != 0 {
		t.Fatalf("%d in-flight traces after build finished", n)
	}
	done := findTrace(bt.Recent, key.String())
	if done.State != BuildDone {
		t.Fatalf("terminal state = %q, want %q", done.State, BuildDone)
	}
	if done.EnqueuedAt.IsZero() {
		t.Fatal("terminal trace has zero enqueued_at")
	}
	if done.SlotWaitMillis < 0 || done.RunMillis < 0 {
		t.Fatalf("negative durations: slot_wait=%v run=%v", done.SlotWaitMillis, done.RunMillis)
	}
	if done.WaiterHighWater != 2 {
		t.Fatalf("terminal waiter high-water = %d, want 2", done.WaiterHighWater)
	}
	if done.Error != "" {
		t.Fatalf("terminal trace has error %q", done.Error)
	}
}

// A build whose sole waiter disconnects is recorded as cancelled, with the
// context error preserved.
func TestBuildTraceCancelled(t *testing.T) {
	s := newBuildServer(t, Config{Workers: 2}, "g")
	key := Key{Graph: "g", Kind: "oracle", Tau: 1, Seed: 9, Algorithm: "cluster"}

	started := make(chan struct{})
	build := func(bctx context.Context, _ *Server, _ Key, _ *graph.Graph, _ *buildTrace) (artifact, error) {
		close(started)
		<-bctx.Done()
		return artifact{}, bctx.Err()
	}

	ctx, cancel := context.WithCancel(context.Background())
	waiter := make(chan error, 1)
	go func() {
		_, err := s.get(ctx, nil, key, build)
		waiter <- err
	}()
	<-started
	cancel()
	<-waiter

	waitUntil(t, "cancelled trace in recent ring", func() bool {
		tr := findTrace(s.BuildTraces().Recent, key.String())
		return tr != nil && tr.State == BuildCancelled
	})
	tr := findTrace(s.BuildTraces().Recent, key.String())
	if tr.Error == "" {
		t.Fatal("cancelled trace has no error string")
	}
}

// A real oracle build observed mid-flight: the engine observer streams
// superstep deltas into the live trace, so /builds shows nonzero
// bsp_rounds and arcs_scanned while the build is still running.
func TestBuildTraceLiveEngineProgress(t *testing.T) {
	g := graph.Mesh(120, 120) // ~240 BFS rounds: plenty of observer barriers
	s := New(Config{Workers: 2})
	if err := s.RegisterGraph("mesh", g); err != nil {
		t.Fatal(err)
	}

	type result struct {
		or  *core.Oracle
		err error
	}
	resc := make(chan result, 1)
	go func() {
		or, err := s.Oracle(context.Background(), "mesh", 2, 1, "cluster")
		resc <- result{or, err}
	}()

	sawLive := false
	waitUntil(t, "live in-flight trace with bsp_rounds > 0", func() bool {
		select {
		case res := <-resc:
			// Build finished before we caught it live — on a 1-CPU box this
			// would make the test flaky, so treat catching it at all as the
			// requirement and verify the terminal trace instead.
			if res.err != nil {
				t.Fatal(res.err)
			}
			resc <- res
			return true
		default:
		}
		for _, tr := range s.BuildTraces().InFlight {
			if tr.BSPRounds > 0 && tr.ArcsScanned > 0 {
				sawLive = true
				return true
			}
		}
		return false
	})
	res := <-resc
	if res.err != nil {
		t.Fatal(res.err)
	}
	if !sawLive {
		t.Log("build finished before a live scrape caught it; verifying terminal trace only")
	}

	waitUntil(t, "oracle trace in recent ring", func() bool {
		return len(s.BuildTraces().Recent) > 0
	})
	tr := s.BuildTraces().Recent[0]
	if tr.State != BuildDone {
		t.Fatalf("terminal state = %q, want %q", tr.State, BuildDone)
	}
	if tr.BSPRounds == 0 || tr.ArcsScanned == 0 || tr.MaxFrontier == 0 {
		t.Fatalf("terminal trace missing engine counters: %+v", tr)
	}
}

// traceCost reads a trace's engine counters back as the bsp.Stats they sum.
func traceCost(tr BuildTraceInfo) bsp.Stats {
	return bsp.Stats{
		Rounds:      int(tr.BSPRounds),
		PullRounds:  int(tr.BSPPullRounds),
		Messages:    tr.ArcsScanned,
		Relaxations: tr.Relaxations,
		Buckets:     int(tr.BucketsSettled),
		MaxFrontier: int(tr.MaxFrontier),
	}
}

// A completed build's trace is its artifact's cost line: for each artifact
// kind, the counters the observer streamed into the trace equal the cost
// the artifact itself records — an oracle's clustering Stats plus its
// APSPStats, a diameter's or k-center's clustering Stats. CLUSTER2 runs a
// preliminary CLUSTER pass for its radius bound whose Stats
// core.Cluster2Context drops, while the observer sees both passes, so a
// cluster2 trace reads exactly that pass's cost higher.
func TestBuildTraceCountsArtifactCost(t *testing.T) {
	ctx := context.Background()
	g := graph.RoadLike(40, 40, 0.4, 5)
	const tau, seed, k = 4, 1, 8
	for _, algo := range []string{"cluster", "cluster2"} {
		s := New(Config{Workers: 2})
		if err := s.RegisterGraph("road", g); err != nil {
			t.Fatal(err)
		}
		o, err := s.Oracle(ctx, "road", tau, seed, algo)
		if err != nil {
			t.Fatal(err)
		}
		d, err := s.Diameter(ctx, "road", tau, seed, algo)
		if err != nil {
			t.Fatal(err)
		}
		kc, err := s.KCenter(ctx, "road", k, seed)
		if err != nil {
			t.Fatal(err)
		}
		var pre bsp.Stats // the preliminary CLUSTER pass, for cluster2 only
		if algo == "cluster2" {
			p, err := core.ClusterContext(ctx, g, tau, core.Options{Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			if pre = p.Stats; pre.Rounds == 0 || pre.Messages == 0 {
				t.Fatalf("preliminary CLUSTER pass has no cost: %+v", pre)
			}
		}
		oracleCost := o.Clustering().Stats
		oracleCost.Add(o.APSPStats())
		oracleCost.Add(pre)
		diameterCost := d.Clustering.Stats
		diameterCost.Add(pre)
		want := map[string]bsp.Stats{
			Key{"road", "oracle", tau, seed, algo}.String():     oracleCost,
			Key{"road", "diameter", tau, seed, algo}.String():   diameterCost,
			Key{"road", "kcenter", k, seed, "cluster"}.String(): kc.Clustering.Stats,
		}

		waitUntil(t, "three traces in the recent ring", func() bool { return len(s.BuildTraces().Recent) == 3 })
		for _, tr := range s.BuildTraces().Recent {
			w, ok := want[tr.Key]
			if !ok {
				t.Fatalf("%s: unexpected trace %q", algo, tr.Key)
			}
			if tr.State != BuildDone || tr.RunMillis <= 0 {
				t.Fatalf("%s: %q is not a completed build: %+v", algo, tr.Key, tr)
			}
			if got := traceCost(tr); got != w {
				t.Errorf("%s: trace %q counts %+v, artifact cost %+v", algo, tr.Key, got, w)
			}
		}
	}
}

// The recent ring keeps only the newest recentBuilds entries, newest first.
func TestBuildTraceRecentRingBounded(t *testing.T) {
	s := newBuildServer(t, Config{Workers: 2}, "g")
	for i := 0; i < recentBuilds+8; i++ {
		key := Key{Graph: "g", Kind: "oracle", Tau: 1, Seed: uint64(i), Algorithm: "cluster"}
		if _, err := s.get(context.Background(), nil, key, func(context.Context, *Server, Key, *graph.Graph, *buildTrace) (artifact, error) {
			return fakeArtifact(int32(i)), nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	waitUntil(t, "recent ring to fill", func() bool {
		return len(s.BuildTraces().Recent) == recentBuilds
	})
	recent := s.BuildTraces().Recent
	for i := 1; i < len(recent); i++ {
		if recent[i-1].ID < recent[i].ID {
			t.Fatalf("recent ring not newest-first at %d: id %d before %d", i, recent[i-1].ID, recent[i].ID)
		}
	}
}
