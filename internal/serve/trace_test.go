package serve

// Tests for the build-lifecycle traces behind /builds: a controlled build
// walked through queued → running → done (with waiter high-water), a
// cancelled build landing in the recent ring with its error, a live oracle
// build observed mid-flight with nonzero engine counters, and the trace
// attached to the artifact's /stats cost entry.

import (
	"context"
	"testing"

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
// bsp_rounds and arcs_scanned while the build is still running; the
// finished artifact carries the full trace in its /stats cost entry.
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

	// The trace also rides the artifact's cost entry in /stats.
	stats := s.Stats()
	if len(stats.ArtifactDetails) != 1 {
		t.Fatalf("%d artifact details, want 1", len(stats.ArtifactDetails))
	}
	cost := stats.ArtifactDetails[0]
	if cost.Trace == nil {
		t.Fatal("artifact cost has no attached trace")
	}
	if cost.Trace.BSPRounds != tr.BSPRounds {
		t.Fatalf("attached trace rounds %d != recent-ring rounds %d", cost.Trace.BSPRounds, tr.BSPRounds)
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
