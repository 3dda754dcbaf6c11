package serve

// Tests that drive artifactCache directly — no Server, no HTTP, no lanes:
// a table of interleavings of start / join / leave / finish / put / prune /
// shutdown, each ending in the same audit: every waiter returned, every
// entry's refcount is back to zero, and every build goroutine drained.

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

// waitersOf reports key's live waiter refcount, or -1 if it has no entry.
func (c *artifactCache) waitersOf(key Key) int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if e, ok := c.entries[key]; ok {
		return e.waiters
	}
	return -1
}

// flight is one detached build under the test's control: the build blocks
// until the test sends its outcome or its context is cancelled.
type flight struct {
	ctx     context.Context
	outcome chan error // nil publishes fakeArtifact(tag); non-nil fails
}

type cacheRig struct {
	t         *testing.T
	c         *artifactCache
	evictions int
	refuse    error        // when non-nil, the start gate refuses new builds
	flights   chan *flight // one per started build, in start order
	entries   []*entry     // every entry a caller was handed, for the audit
}

func newCacheRig(t *testing.T, max int) *cacheRig {
	r := &cacheRig{t: t, flights: make(chan *flight, 16)} // roomy: no scenario starts more than a handful of builds
	r.c = newArtifactCache(max, func() { r.evictions++ })
	return r
}

// acquire calls the cache with the rig's gate and controlled build.
func (r *cacheRig) acquire(key Key, tag int32) (*entry, string, error) {
	e, how, err := r.c.acquire(key,
		func() (*buildTrace, error) { return &buildTrace{}, r.refuse },
		func(ctx context.Context, e *entry) {
			f := &flight{ctx: ctx, outcome: make(chan error, 1)}
			r.flights <- f
			var err error
			select {
			case err = <-f.outcome:
			case <-ctx.Done():
				err = ctx.Err()
			}
			if err != nil {
				r.c.finish(key, e, artifact{}, err)
				return
			}
			r.c.finish(key, e, fakeArtifact(tag), nil)
		})
	if e != nil {
		r.entries = append(r.entries, e)
	}
	return e, how, err
}

// mustAcquire asserts how the cache met the request.
func (r *cacheRig) mustAcquire(key Key, tag int32, want string) *entry {
	r.t.Helper()
	e, how, err := r.acquire(key, tag)
	if err != nil || how != want {
		r.t.Fatalf("acquire(%v) = %q, %v; want %q", key, how, err, want)
	}
	return e
}

func (r *cacheRig) nextFlight() *flight {
	r.t.Helper()
	select {
	case f := <-r.flights:
		return f
	case <-time.After(10 * time.Second):
		r.t.Fatal("no build started")
		return nil
	}
}

// complete builds key to completion through the cache and returns its entry.
func (r *cacheRig) complete(key Key, tag int32) *entry {
	r.t.Helper()
	e := r.mustAcquire(key, tag, cacheMiss)
	r.nextFlight().outcome <- nil
	if err := r.c.wait(context.Background(), key, e); err != nil || e.err != nil {
		r.t.Fatalf("build %v: wait %v, outcome %v", key, err, e.err)
	}
	return e
}

// waitAsync waits on e from another goroutine and reports wait's error.
func (r *cacheRig) waitAsync(ctx context.Context, key Key, e *entry) <-chan error {
	done := make(chan error, 1)
	go func() { done <- r.c.wait(ctx, key, e) }()
	return done
}

func recvErr(t *testing.T, what string, ch <-chan error) error {
	t.Helper()
	select {
	case err := <-ch:
		return err
	case <-time.After(10 * time.Second):
		t.Fatalf("lost waiter: %s never returned", what)
		return nil
	}
}

// audit is the invariant every scenario must end in.
func (r *cacheRig) audit() {
	r.t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := r.c.shutdown(ctx); err != nil {
		r.t.Fatalf("build goroutines leaked: %v", err)
	}
	r.c.mu.RLock()
	defer r.c.mu.RUnlock()
	for i, e := range r.entries {
		if e.waiters != 0 {
			r.t.Errorf("entry %d: refcount %d after every waiter returned, want 0", i, e.waiters)
		}
	}
	for k, e := range r.c.entries {
		if !e.completed() || e.err != nil {
			r.t.Errorf("entry %v left in the cache unfinished or failed (err %v)", k, e.err)
		}
	}
}

func cacheKey(graph string, tau int) Key {
	return Key{Graph: graph, Kind: "oracle", Tau: tau, Seed: 1, Algorithm: "cluster"}
}

func TestArtifactCacheInterleavings(t *testing.T) {
	bg := context.Background()
	k1, k2, k3 := cacheKey("g", 1), cacheKey("g", 2), cacheKey("g", 3)
	errBuild := errors.New("build failed")

	scenarios := []struct {
		name string
		max  int
		run  func(t *testing.T, r *cacheRig)
	}{
		{"start then join then hit", 4, func(t *testing.T, r *cacheRig) {
			starter := r.mustAcquire(k1, 42, cacheMiss)
			f := r.nextFlight()
			joiner := r.mustAcquire(k1, 99, cacheJoin)
			if joiner != starter {
				t.Fatal("join got a different entry: the build was duplicated")
			}
			if n := r.c.waitersOf(k1); n != 2 {
				t.Fatalf("refcount %d with two waiters", n)
			}
			w1, w2 := r.waitAsync(bg, k1, starter), r.waitAsync(bg, k1, joiner)
			f.outcome <- nil
			for _, w := range []<-chan error{w1, w2} {
				if err := recvErr(t, "waiter", w); err != nil {
					t.Fatalf("wait: %v", err)
				}
			}
			if tagOf(starter.val) != 42 || starter.err != nil {
				t.Fatalf("published %+v, %v; want the starter's build", starter.val, starter.err)
			}
			if hit := r.mustAcquire(k1, 0, cacheHit); hit != starter {
				t.Fatal("hit returned a different entry")
			}
			select {
			case <-r.flights:
				t.Fatal("a second build started for a single-flight key")
			default:
			}
		}},
		{"last waiter leaves", 4, func(t *testing.T, r *cacheRig) {
			e := r.mustAcquire(k1, 1, cacheMiss)
			f := r.nextFlight()
			ctx, cancel := context.WithCancel(bg)
			w := r.waitAsync(ctx, k1, e)
			cancel()
			if err := recvErr(t, "sole waiter", w); !errors.Is(err, context.Canceled) {
				t.Fatalf("wait = %v, want context.Canceled", err)
			}
			// Removed by the departing waiter itself, before the build unwinds.
			if n := r.c.waitersOf(k1); n != -1 {
				t.Fatalf("doomed entry still cached (refcount %d)", n)
			}
			select {
			case <-f.ctx.Done():
			case <-time.After(10 * time.Second):
				t.Fatal("build context not cancelled by the last waiter")
			}
			// A request in the unwind window starts fresh instead of joining.
			r.complete(k1, 2)
		}},
		{"surviving waiter keeps the build", 4, func(t *testing.T, r *cacheRig) {
			e := r.mustAcquire(k1, 5, cacheMiss)
			f := r.nextFlight()
			r.mustAcquire(k1, 0, cacheJoin)
			ctx, cancel := context.WithCancel(bg)
			leaver, stayer := r.waitAsync(ctx, k1, e), r.waitAsync(bg, k1, e)
			cancel()
			if err := recvErr(t, "leaving waiter", leaver); !errors.Is(err, context.Canceled) {
				t.Fatalf("leaver wait = %v", err)
			}
			if f.ctx.Err() != nil {
				t.Fatal("build cancelled while a waiter remained")
			}
			if n := r.c.waitersOf(k1); n != 1 {
				t.Fatalf("refcount %d after one of two waiters left", n)
			}
			f.outcome <- nil
			if err := recvErr(t, "surviving waiter", stayer); err != nil || tagOf(e.val) != 5 {
				t.Fatalf("survivor: wait %v, val %+v", err, e.val)
			}
		}},
		{"failed build is not cached", 4, func(t *testing.T, r *cacheRig) {
			e := r.mustAcquire(k1, 1, cacheMiss)
			f := r.nextFlight()
			r.mustAcquire(k1, 1, cacheJoin)
			w1, w2 := r.waitAsync(bg, k1, e), r.waitAsync(bg, k1, e)
			f.outcome <- errBuild
			for _, w := range []<-chan error{w1, w2} {
				if err := recvErr(t, "waiter", w); err != nil {
					t.Fatalf("wait: %v", err)
				}
			}
			if !errors.Is(e.err, errBuild) {
				t.Fatalf("outcome %v, want the build error", e.err)
			}
			if n := r.c.len(); n != 0 {
				t.Fatalf("%d entries cached after a failed build", n)
			}
			r.complete(k1, 2) // retryable at once
		}},
		{"panic surfaced as an error", 4, func(t *testing.T, r *cacheRig) {
			// The cache never sees a panic: whoever runs the build contains it
			// and finishes with an error, exactly as Server.runBuild does.
			e, _, err := r.c.acquire(k1,
				func() (*buildTrace, error) { return &buildTrace{}, nil },
				func(_ context.Context, e *entry) {
					defer func() {
						r.c.finish(k1, e, artifact{}, fmt.Errorf("panicked: %v", recover()))
					}()
					panic("boom")
				})
			if err != nil {
				t.Fatal(err)
			}
			r.entries = append(r.entries, e)
			if err := r.c.wait(bg, k1, e); err != nil || e.err == nil {
				t.Fatalf("wait %v, outcome %v; want a contained panic error", err, e.err)
			}
			if n := r.c.len(); n != 0 {
				t.Fatalf("%d entries cached after a panicked build", n)
			}
		}},
		{"refused start leaves no trace", 4, func(t *testing.T, r *cacheRig) {
			r.refuse = errBuild
			if e, _, err := r.acquire(k1, 1); !errors.Is(err, errBuild) || e != nil {
				t.Fatalf("acquire = %v, %v; want the gate's refusal", e, err)
			}
			if n := r.c.len(); n != 0 {
				t.Fatalf("%d entries after a refused start", n)
			}
			r.refuse = nil
			r.complete(k1, 1)
		}},
		{"eviction takes the oldest completed entry", 2, func(t *testing.T, r *cacheRig) {
			r.complete(k1, 1)
			r.complete(k2, 2)
			r.mustAcquire(k1, 0, cacheHit) // k2 is now the least recently used
			if err := r.c.put(k3, fakeArtifact(3)); err != nil {
				t.Fatalf("put at capacity: %v", err)
			}
			if r.evictions != 1 || r.c.waitersOf(k2) != -1 || r.c.waitersOf(k1) != 0 {
				t.Fatalf("evictions=%d k1=%d k2=%d: want exactly k2 evicted",
					r.evictions, r.c.waitersOf(k1), r.c.waitersOf(k2))
			}
			// Replacing a cached key needs no room.
			if err := r.c.put(k3, fakeArtifact(4)); err != nil || r.evictions != 1 {
				t.Fatalf("replace in place: err %v, evictions %d", err, r.evictions)
			}
		}},
		{"in-flight builds are never evicted", 2, func(t *testing.T, r *cacheRig) {
			// k1 is in flight and OLDER than the completed k2: the victim must
			// still be k2.
			e1 := r.mustAcquire(k1, 1, cacheMiss)
			f1 := r.nextFlight()
			r.complete(k2, 2)
			e3 := r.mustAcquire(k3, 3, cacheMiss)
			f3 := r.nextFlight()
			if r.evictions != 1 || r.c.waitersOf(k2) != -1 || r.c.waitersOf(k1) != 1 {
				t.Fatalf("evictions=%d k1=%d k2=%d: want the completed k2 evicted, not the in-flight k1",
					r.evictions, r.c.waitersOf(k1), r.c.waitersOf(k2))
			}
			// Every slot in flight: no room, and the gate is not even consulted.
			r.refuse = errors.New("gate consulted for a build that cannot fit")
			if _, _, err := r.acquire(k2, 2); !errors.Is(err, ErrCacheFull) {
				t.Fatalf("acquire into a cache full of in-flight builds = %v, want ErrCacheFull", err)
			}
			if err := r.c.put(k2, fakeArtifact(2)); !errors.Is(err, ErrCacheFull) {
				t.Fatalf("put into a cache full of in-flight builds = %v, want ErrCacheFull", err)
			}
			r.refuse = nil
			// One completion is enough to make room again.
			f1.outcome <- nil
			if err := r.c.wait(bg, k1, e1); err != nil {
				t.Fatal(err)
			}
			if err := r.c.put(k2, fakeArtifact(2)); err != nil {
				t.Fatalf("put after a completion: %v", err)
			}
			f3.outcome <- nil
			if err := r.c.wait(bg, k3, e3); err != nil {
				t.Fatal(err)
			}
		}},
		{"prune while building", 4, func(t *testing.T, r *cacheRig) {
			other := cacheKey("h", 1)
			r.complete(other, 9)
			r.complete(k2, 2)
			old := r.mustAcquire(k1, 1, cacheMiss)
			f := r.nextFlight()
			w := r.waitAsync(bg, k1, old)
			r.c.pruneGraph("g")
			if r.c.waitersOf(k1) != -1 || r.c.waitersOf(k2) != -1 || r.c.waitersOf(other) != 0 {
				t.Fatal("prune must drop exactly the graph's entries, completed and in flight")
			}
			// A retry against the new graph starts while the pruned build is
			// still unwinding; the old build's failure must not remove it.
			fresh := r.mustAcquire(k1, 7, cacheMiss)
			select {
			case <-f.ctx.Done():
			case <-time.After(10 * time.Second):
				t.Fatal("pruned build was never cancelled")
			}
			if err := recvErr(t, "pruned build's waiter", w); err != nil || !errors.Is(old.err, context.Canceled) {
				t.Fatalf("pruned waiter: wait %v, outcome %v; want context.Canceled", err, old.err)
			}
			if n := r.c.waitersOf(k1); n != 1 {
				t.Fatalf("the pruned build's failure disturbed its successor (refcount %d)", n)
			}
			r.nextFlight().outcome <- nil
			if err := r.c.wait(bg, k1, fresh); err != nil || tagOf(fresh.val) != 7 {
				t.Fatalf("successor: wait %v, val %+v", err, fresh.val)
			}
		}},
		{"shutdown", 4, func(t *testing.T, r *cacheRig) {
			r.complete(k1, 1)
			e := r.mustAcquire(k2, 2, cacheMiss)
			f := r.nextFlight()
			w := r.waitAsync(bg, k2, e)
			ctx, cancel := context.WithTimeout(bg, 10*time.Second)
			defer cancel()
			if err := r.c.shutdown(ctx); err != nil {
				t.Fatalf("shutdown: %v", err)
			}
			if f.ctx.Err() == nil {
				t.Fatal("shutdown returned with the build context still live")
			}
			if err := recvErr(t, "waiter across shutdown", w); err != nil || !errors.Is(e.err, context.Canceled) {
				t.Fatalf("waiter: wait %v, outcome %v; want context.Canceled", err, e.err)
			}
			// Completed artifacts stay queryable; new builds are refused.
			r.mustAcquire(k1, 0, cacheHit)
			if _, _, err := r.acquire(k3, 3); !errors.Is(err, ErrShuttingDown) {
				t.Fatalf("build after shutdown = %v, want ErrShuttingDown", err)
			}
		}},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			r := newCacheRig(t, sc.max)
			sc.run(t, r)
			r.audit()
		})
	}
}

// shutdown must give up at its deadline instead of hanging on a build that
// ignores its cancellation.
func TestArtifactCacheShutdownDeadline(t *testing.T) {
	c := newArtifactCache(2, func() {})
	key := cacheKey("g", 1)
	release := make(chan struct{})
	e, _, err := c.acquire(key,
		func() (*buildTrace, error) { return &buildTrace{}, nil },
		func(_ context.Context, e *entry) {
			<-release // deaf to its context
			c.finish(key, e, artifact{}, errors.New("late"))
		})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := c.shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("shutdown past its deadline = %v, want DeadlineExceeded", err)
	}
	close(release)
	if err := c.wait(context.Background(), key, e); err != nil {
		t.Fatal(err)
	}
	if err := c.shutdown(context.Background()); err != nil {
		t.Fatalf("second shutdown after the build drained: %v", err)
	}
}
