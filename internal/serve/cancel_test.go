package serve

// Tests for the detached, reference-counted build pipeline: a build whose
// waiters have all disconnected is cancelled mid-flight (the engines stop
// at their next barrier), its worker slots are already free, its cache
// entry is removed so the key is retryable, and a surviving waiter keeps
// the build alive. These run under the CI -race job like every other test.

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
)

// waitUntil polls cond for up to 10s — build goroutines publish their
// outcome asynchronously, so assertions about post-build state poll.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func (s *Server) cachedEntries() int { return s.cache.len() }

// newBuildServer returns a server for the controlled-build tests below,
// with a placeholder graph under each name they key on: every build is
// handed the graph currently registered for its key.
func newBuildServer(t *testing.T, cfg Config, graphs ...string) *Server {
	t.Helper()
	s := New(cfg)
	for _, name := range graphs {
		if err := s.RegisterGraph(name, graph.Mesh(2, 2)); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// fakeArtifact is a stand-in build result the tests can tell apart by tag.
func fakeArtifact(tag int32) artifact {
	return artifact{kcenter: &core.KCenterResult{Radius: tag}}
}

func tagOf(a artifact) int32 {
	if a.kcenter == nil {
		return -1
	}
	return a.kcenter.Radius
}

// The heart of the contract, with a fully controlled build: cancelling the
// sole waiter cancels the detached build's context, the entry is removed
// (key retryable), and a retry rebuilds cleanly.
func TestCancelSoleWaiterCancelsDetachedBuild(t *testing.T) {
	s := newBuildServer(t, Config{Workers: 2}, "g")
	key := Key{Graph: "g", Kind: "oracle", Tau: 1, Seed: 1, Algorithm: "cluster"}

	started := make(chan struct{})
	buildErr := make(chan error, 1)
	build := func(bctx context.Context, _ *Server, _ Key, _ *graph.Graph, _ *buildTrace) (artifact, error) {
		close(started)
		<-bctx.Done() // a stand-in for engines parked at a barrier
		buildErr <- bctx.Err()
		return artifact{}, bctx.Err()
	}

	ctx, cancel := context.WithCancel(context.Background())
	waiter := make(chan error, 1)
	go func() {
		_, err := s.get(ctx, nil, key, build)
		waiter <- err
	}()

	<-started // the detached build is running
	cancel()  // the sole waiter disconnects

	if err := <-waiter; !errors.Is(err, context.Canceled) {
		t.Fatalf("waiter err = %v, want context.Canceled", err)
	}
	// The doomed entry is removed by the departing waiter itself — the key
	// is retryable immediately, before the build goroutine unwinds, and a
	// request landing in that window starts a fresh build instead of
	// inheriting this one's context.Canceled.
	if n := s.cachedEntries(); n != 0 {
		t.Fatalf("%d entries still cached right after the last waiter left", n)
	}
	// The build context was cancelled because the last waiter left — not
	// because the build finished.
	select {
	case err := <-buildErr:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("build ctx err = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("detached build never saw the cancellation")
	}
	// The entry is removed, so the key is retryable; the cancellation is
	// counted.
	waitUntil(t, "cancelled entry removal", func() bool { return s.cachedEntries() == 0 })
	waitUntil(t, "cancelled-build counter", func() bool { return s.met.cancelled.Value() == 1 })

	// Retry rebuilds cleanly.
	v, err := s.get(context.Background(), nil, key, func(context.Context, *Server, Key, *graph.Graph, *buildTrace) (artifact, error) {
		return fakeArtifact(42), nil
	})
	if err != nil || tagOf(v) != 42 {
		t.Fatalf("retry after cancellation: v=%v err=%v", v, err)
	}
}

// A second waiter keeps the build alive when the first disconnects; only
// the last departure cancels.
func TestSurvivingWaiterKeepsBuildAlive(t *testing.T) {
	s := newBuildServer(t, Config{Workers: 4}, "g")
	key := Key{Graph: "g", Kind: "oracle", Tau: 2, Seed: 1, Algorithm: "cluster"}

	started := make(chan struct{})
	release := make(chan struct{})
	cancelledEarly := make(chan struct{}, 1)
	build := func(bctx context.Context, _ *Server, _ Key, _ *graph.Graph, _ *buildTrace) (artifact, error) {
		close(started)
		select {
		case <-bctx.Done():
			cancelledEarly <- struct{}{}
			return artifact{}, bctx.Err()
		case <-release:
			return fakeArtifact(7), nil
		}
	}

	ctx1, cancel1 := context.WithCancel(context.Background())
	w1 := make(chan error, 1)
	go func() {
		_, err := s.get(ctx1, nil, key, build)
		w1 <- err
	}()
	<-started

	// Second waiter joins the in-flight build.
	w2 := make(chan any, 1)
	go func() {
		v, err := s.get(context.Background(), nil, key, build)
		if err != nil {
			w2 <- err
		} else {
			w2 <- v
		}
	}()
	waitUntil(t, "second waiter registration", func() bool {
		return s.cache.waitersOf(key) == 2
	})

	// First waiter leaves: the build must NOT be cancelled.
	cancel1()
	if err := <-w1; !errors.Is(err, context.Canceled) {
		t.Fatalf("w1 err = %v, want context.Canceled", err)
	}
	select {
	case <-cancelledEarly:
		t.Fatal("build was cancelled while a waiter remained")
	case <-time.After(50 * time.Millisecond):
	}

	// Let the build finish; the surviving waiter gets the artifact.
	close(release)
	switch v := (<-w2).(type) {
	case artifact:
		if tagOf(v) != 7 {
			t.Fatalf("w2 got %+v", v)
		}
	default:
		t.Fatalf("w2 got %v (%T), want the artifact", v, v)
	}
	if s.cachedEntries() != 1 {
		t.Fatalf("completed artifact not cached (%d entries)", s.cachedEntries())
	}
}

// End-to-end through the real engines: a pre-cancelled request aborts the
// oracle decomposition at its first round barrier (core returns ctx.Err(),
// so the entry is dropped and the key retryable), and a retry rebuilds the
// artifact for real. This is the "engine returns ctx.Err()" acceptance
// path without any timing dependence.
func TestCancelledOracleBuildStopsEngineAndRetries(t *testing.T) {
	s := New(Config{Workers: 2})
	if err := s.RegisterGraph("mesh", graph.Mesh(60, 60)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Oracle(ctx, "mesh", 3, 1, ""); !errors.Is(err, context.Canceled) {
		t.Fatalf("Oracle err = %v, want context.Canceled", err)
	}
	waitUntil(t, "cancelled oracle entry removal", func() bool { return s.cachedEntries() == 0 })
	// The abandoned build is counted whether it was cancelled mid-engines
	// or while still queued for a build slot (in the latter case it never
	// executed, so Builds may stay 0 here).
	waitUntil(t, "cancelled build accounting", func() bool { return s.met.cancelled.Value() == 1 })

	// Retry with a live context: clean rebuild, same key.
	o, err := s.Oracle(context.Background(), "mesh", 3, 1, "")
	if err != nil {
		t.Fatal(err)
	}
	if o.NumClusters() == 0 {
		t.Fatal("retry produced an empty oracle")
	}
	if builds, artifacts := s.met.builds.Value(), s.cachedEntries(); builds < 1 || artifacts != 1 {
		t.Fatalf("builds=%d artifacts=%d after retry, want >=1 executed build and 1 artifact", builds, artifacts)
	}
}

// The same contract holds for the diameter family. (The name predates the
// removal of the MR diameter artifact, which this test covered as well.)
func TestCancelledDiameterAndMRDiameterRetryable(t *testing.T) {
	s := New(Config{Workers: 2})
	if err := s.RegisterGraph("mesh", graph.Mesh(30, 30)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Diameter(ctx, "mesh", 1, 1, ""); !errors.Is(err, context.Canceled) {
		t.Fatalf("Diameter err = %v, want context.Canceled", err)
	}
	waitUntil(t, "cancelled entry removal", func() bool { return s.cachedEntries() == 0 })
	if _, err := s.Diameter(context.Background(), "mesh", 1, 1, ""); err != nil {
		t.Fatalf("diameter retry: %v", err)
	}
}

// A departing waiter frees its worker slot immediately — while the build
// it abandoned is still running for someone else. This mirrors the
// endpoint wrapper: the request record acquires the slot around the
// artifact call, and get parks it for the wait.
func TestWaiterSlotFreedWhileBuildStillRunning(t *testing.T) {
	s := newBuildServer(t, Config{Workers: 1}, "g") // a single slot makes leakage observable
	key := Key{Graph: "g", Kind: "oracle", Tau: 3, Seed: 1, Algorithm: "cluster"}

	started := make(chan struct{})
	release := make(chan struct{})
	build := func(bctx context.Context, _ *Server, _ Key, _ *graph.Graph, _ *buildTrace) (artifact, error) {
		close(started)
		select {
		case <-bctx.Done():
			return artifact{}, bctx.Err()
		case <-release:
			return fakeArtifact(1), nil
		}
	}

	// Waiter A: holds the only slot, as endpoint would, then disconnects.
	ctx, cancel := context.WithCancel(context.Background())
	aDone := make(chan struct{})
	go func() {
		defer close(aDone)
		rq := &request{lane: s.fast}
		if err := acquire(ctx, rq); err != nil {
			t.Errorf("acquire: %v", err)
			return
		}
		defer rq.release()
		_, _ = s.get(ctx, rq, key, build)
	}()
	<-started
	cancel()
	<-aDone // A returned and released its slot — before the build completed

	// The slot must be immediately available even though the (now
	// cancelled) build goroutine may still be winding down.
	acqCtx, acqCancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer acqCancel()
	if err := acquire(acqCtx, &request{lane: s.fast}); err != nil {
		t.Fatalf("worker slot not freed on disconnect: %v", err)
	}
	s.fast.release()
	close(release)
}

// Detached builds are bounded by the build pool (Config.Workers): a
// second build queues behind a running one instead of running engines
// beside it, and a build cancelled while queued never runs at all.
func TestDetachedBuildsBoundedByBuildPool(t *testing.T) {
	s := newBuildServer(t, Config{Workers: 1}, "g")
	key1 := Key{Graph: "g", Kind: "oracle", Tau: 101, Seed: 1, Algorithm: "cluster"}
	key2 := Key{Graph: "g", Kind: "oracle", Tau: 102, Seed: 1, Algorithm: "cluster"}
	key3 := Key{Graph: "g", Kind: "oracle", Tau: 103, Seed: 1, Algorithm: "cluster"}

	started1 := make(chan struct{})
	release1 := make(chan struct{})
	w1 := make(chan error, 1)
	go func() {
		_, err := s.get(context.Background(), nil, key1, func(bctx context.Context, _ *Server, _ Key, _ *graph.Graph, _ *buildTrace) (artifact, error) {
			close(started1)
			select {
			case <-release1:
				return fakeArtifact(1), nil
			case <-bctx.Done():
				return artifact{}, bctx.Err()
			}
		})
		w1 <- err
	}()
	<-started1 // build 1 holds the only build slot

	started2 := make(chan struct{}, 1)
	w2 := make(chan error, 1)
	go func() {
		_, err := s.get(context.Background(), nil, key2, func(context.Context, *Server, Key, *graph.Graph, *buildTrace) (artifact, error) {
			started2 <- struct{}{}
			return fakeArtifact(2), nil
		})
		w2 <- err
	}()
	select {
	case <-started2:
		t.Fatal("second build ran while the first held the only build slot")
	case <-time.After(50 * time.Millisecond):
	}

	// A build cancelled while queued leaves the queue without running.
	ctx3, cancel3 := context.WithCancel(context.Background())
	w3 := make(chan error, 1)
	go func() {
		_, err := s.get(ctx3, nil, key3, func(context.Context, *Server, Key, *graph.Graph, *buildTrace) (artifact, error) {
			t.Error("queued build ran despite cancellation")
			return artifact{}, nil
		})
		w3 <- err
	}()
	waitUntil(t, "third key registration", func() bool {
		return s.cache.waitersOf(key3) == 1
	})
	cancel3()
	if err := <-w3; !errors.Is(err, context.Canceled) {
		t.Fatalf("queued-then-cancelled build err = %v, want context.Canceled", err)
	}

	// Releasing build 1 lets build 2 run to completion.
	close(release1)
	if err := <-w1; err != nil {
		t.Fatalf("build 1: %v", err)
	}
	if err := <-w2; err != nil {
		t.Fatalf("build 2 never got the slot: %v", err)
	}
	<-started2
}

// RegisterGraph replacing a graph cancels the in-flight builds it prunes:
// an artifact under construction must not outlive its topology, and
// Shutdown — which cancels via cache membership — must never be blind to
// a still-running pruned build.
func TestRegisterGraphCancelsPrunedBuilds(t *testing.T) {
	s := New(Config{Workers: 2})
	if err := s.RegisterGraph("g", graph.Mesh(10, 10)); err != nil {
		t.Fatal(err)
	}
	key := Key{Graph: "g", Kind: "oracle", Tau: 5, Seed: 1, Algorithm: "cluster"}
	started := make(chan struct{})
	w := make(chan error, 1)
	go func() {
		_, err := s.get(context.Background(), nil, key, func(bctx context.Context, _ *Server, _ Key, _ *graph.Graph, _ *buildTrace) (artifact, error) {
			close(started)
			<-bctx.Done()
			return artifact{}, bctx.Err()
		})
		w <- err
	}()
	<-started

	if err := s.RegisterGraph("g", graph.Mesh(12, 12)); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-w:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("pruned build waiter err = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("pruned in-flight build was never cancelled")
	}
}

// A panicking build must become a failed, retryable build — not a daemon
// crash. The detached goroutine has no net/http recover above it, so the
// containment lives in runBuild.
func TestPanickingBuildIsContainedAndRetryable(t *testing.T) {
	s := newBuildServer(t, Config{Workers: 2}, "g")
	key := Key{Graph: "g", Kind: "oracle", Tau: 9, Seed: 1, Algorithm: "cluster"}

	_, err := s.get(context.Background(), nil, key, func(context.Context, *Server, Key, *graph.Graph, *buildTrace) (artifact, error) {
		panic("boom")
	})
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("panicking build: err = %v, want a contained panic error", err)
	}
	waitUntil(t, "panicked entry removal", func() bool { return s.cachedEntries() == 0 })

	// The key is retryable and the server is still alive.
	v, err := s.get(context.Background(), nil, key, func(context.Context, *Server, Key, *graph.Graph, *buildTrace) (artifact, error) {
		return fakeArtifact(3), nil
	})
	if err != nil || tagOf(v) != 3 {
		t.Fatalf("retry after panic: v=%v err=%v", v, err)
	}
}

// Server.Shutdown cancels every in-flight build and drains the build
// goroutines.
func TestServerShutdownCancelsInFlightBuilds(t *testing.T) {
	s := newBuildServer(t, Config{Workers: 2}, "g")
	key := Key{Graph: "g", Kind: "oracle", Tau: 4, Seed: 1, Algorithm: "cluster"}

	started := make(chan struct{})
	build := func(bctx context.Context, _ *Server, _ Key, _ *graph.Graph, _ *buildTrace) (artifact, error) {
		close(started)
		<-bctx.Done()
		return artifact{}, bctx.Err()
	}
	w := make(chan error, 1)
	go func() {
		_, err := s.get(context.Background(), nil, key, build)
		w <- err
	}()
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-w; !errors.Is(err, context.Canceled) {
		t.Fatalf("waiter err after shutdown = %v, want context.Canceled", err)
	}
	if n := s.cachedEntries(); n != 0 {
		t.Fatalf("%d cancelled entries left in cache after shutdown", n)
	}

	// Builds requested after Shutdown are rejected fast, so late traffic
	// cannot extend the drain.
	_, err := s.get(context.Background(), nil, key, func(context.Context, *Server, Key, *graph.Graph, *buildTrace) (artifact, error) {
		t.Error("build ran after Shutdown")
		return artifact{}, nil
	})
	if !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("post-shutdown build err = %v, want ErrShuttingDown", err)
	}
}

// Satellite: /diameter must key on the RESOLVED tau — a parameter-less
// request and an explicit request for the resolved default share one cache
// slot, and /builds reports the real parameter instead of tau=0.
func TestDiameterDefaultTauResolvedIntoKey(t *testing.T) {
	g := graph.Mesh(40, 40)
	s := New(Config{Workers: 2})
	if err := s.RegisterGraph("mesh", g); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Diameter(context.Background(), "mesh", 0, 1, ""); err != nil {
		t.Fatal(err)
	}
	def := core.DefaultDiameterTau(g.NumNodes())
	if _, err := s.Diameter(context.Background(), "mesh", def, 1, ""); err != nil {
		t.Fatal(err)
	}
	if n := s.met.builds.Value(); n != 1 {
		t.Fatalf("default and explicit-default diameter requests built %d artifacts, want 1", n)
	}
	waitUntil(t, "the build's trace in the recent ring", func() bool { return len(s.BuildTraces().Recent) == 1 })
	want := Key{Graph: "mesh", Kind: "diameter", Tau: def, Seed: 1, Algorithm: "cluster"}.String()
	if k := s.BuildTraces().Recent[0].Key; k != want {
		t.Fatalf("/builds reports key %q, want the resolved %q", k, want)
	}
}

// Satellite: InstallSnapshot honors MaxArtifacts. When every slot holds an
// in-flight build nothing is evictable and the install is rejected; once a
// slot completes, the LRU completed entry is evicted to make room.
func TestInstallSnapshotHonorsCacheCap(t *testing.T) {
	// Build a small artifact to install.
	donor := New(Config{Workers: 2})
	if err := donor.RegisterGraph("m", graph.Mesh(15, 15)); err != nil {
		t.Fatal(err)
	}
	art, err := donor.SnapshotArtifact(context.Background(), "m", 2, 7, "cluster")
	if err != nil {
		t.Fatal(err)
	}

	s := newBuildServer(t, Config{Workers: 2, MaxArtifacts: 1}, "other")
	// Occupy the single slot with an in-flight build.
	key := Key{Graph: "other", Kind: "oracle", Tau: 1, Seed: 1, Algorithm: "cluster"}
	started := make(chan struct{})
	release := make(chan struct{})
	go func() {
		_, _ = s.get(context.Background(), nil, key, func(bctx context.Context, _ *Server, _ Key, _ *graph.Graph, _ *buildTrace) (artifact, error) {
			close(started)
			select {
			case <-release:
				return fakeArtifact(1), nil
			case <-bctx.Done():
				return artifact{}, bctx.Err()
			}
		})
	}()
	<-started

	if err := s.InstallSnapshot(art); !errors.Is(err, ErrCacheFull) {
		t.Fatalf("install into a cache full of in-flight builds: err = %v, want ErrCacheFull", err)
	}

	// Complete the build: now the completed entry is evictable and the
	// install succeeds within the cap.
	close(release)
	waitUntil(t, "build completion", func() bool {
		_, ok := s.cache.lookup(key)
		return ok
	})
	if err := s.InstallSnapshot(art); err != nil {
		t.Fatalf("install after completion: %v", err)
	}
	if n := s.cachedEntries(); n != 1 {
		t.Fatalf("cache grew past MaxArtifacts: %d entries", n)
	}

	// Reinstalling the same key replaces in place — no eviction needed.
	if err := s.InstallSnapshot(art); err != nil {
		t.Fatalf("reinstall same key: %v", err)
	}
	if n := s.cachedEntries(); n != 1 {
		t.Fatalf("reinstall changed the cache size: %d entries", n)
	}
}
