package serve

// cache.go is the artifact cache: a bounded, keyed, single-flight store of
// build results whose builds run detached and are reference-counted by the
// requests waiting on them. It owns its lock and knows nothing of HTTP,
// admission lanes or metrics — Server (server.go) maps requests to keys,
// decides whether a new build may start, and runs the build; the cache
// decides who builds, who joins, who is evicted and when a build nobody
// waits for is cancelled.

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/core"
)

// artifact is what a build produces: exactly one kind pointer, selected by
// Key.Kind. What the build cost is its trace's business (trace.go).
type artifact struct {
	oracle   *core.Oracle
	diameter *core.DiameterResult
	kcenter  *core.KCenterResult
}

// How a request met the cache, as reported in RequestLogEntry.Cache.
const (
	cacheHit  = "hit"  // answered from a completed artifact
	cacheMiss = "miss" // started the build
	cacheJoin = "join" // attached to a build already in flight
)

// entry is a cache slot. ready is closed once val and err are final;
// requests for an in-flight key block on it instead of duplicating the
// build (single flight). waiters counts the requests currently blocked on
// ready: when the last of them leaves before the build completes, cancel
// stops the build at its next round/bucket/source barrier instead of
// letting it burn cores for nobody. lastUsed is the cache's logical clock
// at the entry's most recent touch, driving LRU eviction. val and err are
// written under the cache lock before ready closes and read only after.
type entry struct {
	ready    chan struct{}
	val      artifact
	err      error
	lastUsed atomic.Int64

	// trace is the build's lifecycle trace; nil for entries that were never
	// built here (snapshot installs).
	trace *buildTrace

	// Guarded by artifactCache.mu. cancel stops the detached build; it is
	// a no-op once the build has finished, and for snapshot installs.
	waiters int
	cancel  context.CancelFunc
}

func (e *entry) completed() bool {
	select {
	case <-e.ready:
		return true
	default:
		return false
	}
}

// artifactCache holds at most max entries, completed or in flight.
type artifactCache struct {
	max     int
	onEvict func()       // called (under mu) once per LRU eviction
	clock   atomic.Int64 // logical time for LRU bookkeeping

	mu       sync.RWMutex
	entries  map[Key]*entry
	draining bool // set by shutdown: new builds are rejected

	// builds tracks the detached build goroutines so shutdown can wait for
	// them. Add only happens under mu with draining false, so it cannot
	// race the Wait in shutdown.
	builds sync.WaitGroup
}

func newArtifactCache(max int, onEvict func()) *artifactCache {
	return &artifactCache{max: max, onEvict: onEvict, entries: make(map[Key]*entry)}
}

func (c *artifactCache) touch(e *entry) { e.lastUsed.Store(c.clock.Add(1)) }

// lookup returns key's entry if it is completed. It is the fast path in
// front of acquire: concurrent queries never serialize on the write lock.
func (c *artifactCache) lookup(key Key) (*entry, bool) {
	c.mu.RLock()
	e, ok := c.entries[key]
	c.mu.RUnlock()
	if !ok || !e.completed() {
		return nil, false
	}
	c.touch(e)
	return e, true
}

// acquire resolves key to an entry and says how: a completed one (hit), an
// in-flight one the caller now waits on (join), or a new one whose build
// was just started (miss); after a join or a miss the caller owes a wait.
//
// A new build is gated by start, called under the cache lock once a slot
// is known to be available: an error refuses the build, otherwise the
// returned trace is attached to the entry. run then executes on its own
// goroutine under a context that is independent of any request's — it is
// cancelled by the last departing waiter, not the first — and must end by
// calling finish exactly once.
func (c *artifactCache) acquire(key Key, start func() (*buildTrace, error), run func(context.Context, *entry)) (*entry, string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok {
		c.touch(e)
		if e.completed() { // e.g. since the caller's lookup missed
			return e, cacheHit, nil
		}
		c.addWaiterLocked(e, 1)
		return e, cacheJoin, nil
	}
	if c.draining {
		return nil, "", ErrShuttingDown
	}
	victim, room := c.roomLocked()
	if !room {
		return nil, "", ErrCacheFull
	}
	tr, err := start()
	if err != nil {
		return nil, "", err
	}
	c.evictLocked(victim)
	//lint:allow background deliberate detached root: builds outlive the requesting waiter and are cancelled by the cache (PR 5 design)
	ctx, cancel := context.WithCancel(context.Background())
	e := &entry{ready: make(chan struct{}), cancel: cancel, trace: tr}
	c.touch(e)
	c.addWaiterLocked(e, 1)
	c.entries[key] = e
	c.builds.Add(1)
	go func() {
		defer c.builds.Done()
		defer cancel() // release the context's resources in every outcome
		run(ctx, e)
	}()
	return e, cacheMiss, nil
}

// addWaiterLocked is the one place an entry's waiter refcount changes, so
// the trace's live count and high-water mark can never drift from it.
func (c *artifactCache) addWaiterLocked(e *entry, delta int) {
	e.waiters += delta
	e.trace.setWaiters(e.waiters)
}

// wait blocks until e's build completes (nil; the outcome is in e.val and
// e.err) or ctx is cancelled (ctx.Err()), dropping the caller's waiter
// reference either way.
func (c *artifactCache) wait(ctx context.Context, key Key, e *entry) error {
	select {
	case <-e.ready:
		c.mu.Lock()
		c.addWaiterLocked(e, -1)
		c.mu.Unlock()
		return nil
	case <-ctx.Done():
		c.mu.Lock()
		c.addWaiterLocked(e, -1)
		if e.waiters == 0 && !e.completed() {
			// Last waiter gone mid-build: stop the engines, and drop the
			// doomed entry NOW rather than when the build unwinds at its
			// next barrier. The key is retryable immediately, and a request
			// arriving in the unwind window starts a fresh build instead of
			// joining this one and inheriting its context.Canceled as a
			// spurious 503.
			e.cancel()
			c.removeLocked(key, e)
		}
		c.mu.Unlock()
		return ctx.Err()
	}
}

// finish publishes a build's outcome. The result and the ready close
// happen in one critical section, so waiter bookkeeping never sees a
// half-published entry. A failed build is not cached: its entry is removed
// before ready closes, so the key is immediately retryable.
func (c *artifactCache) finish(key Key, e *entry, val artifact, err error) {
	c.mu.Lock()
	e.val, e.err = val, err
	if err != nil {
		c.removeLocked(key, e)
	}
	close(e.ready)
	c.mu.Unlock()
}

// removeLocked drops key only if it still maps to e: the last waiter,
// prune or a finished retry may already have replaced or removed it.
func (c *artifactCache) removeLocked(key Key, e *entry) {
	if c.entries[key] == e {
		delete(c.entries, key)
	}
}

// roomLocked reports whether a new key fits: outright (no victim), or by
// evicting victim, the least-recently-used completed entry. In-flight
// builds are never evicted — waiters hold references to them — so a cache
// full of them has no room.
func (c *artifactCache) roomLocked() (victim *Key, room bool) {
	if len(c.entries) < c.max {
		return nil, true
	}
	var oldest int64
	for k, e := range c.entries {
		if !e.completed() {
			continue
		}
		if age := e.lastUsed.Load(); victim == nil || age < oldest {
			victim, oldest = &k, age
		}
	}
	return victim, victim != nil
}

func (c *artifactCache) evictLocked(victim *Key) {
	if victim != nil {
		delete(c.entries, *victim)
		c.onEvict()
	}
}

// put installs a completed artifact that was never built here (a snapshot),
// honouring the bound exactly like a build does: replacing an existing key
// needs no room, a new key must find or evict a slot.
func (c *artifactCache) put(key Key, val artifact) error {
	e := &entry{ready: make(chan struct{}), val: val, cancel: func() {}}
	close(e.ready)
	c.touch(e)
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, exists := c.entries[key]; !exists {
		victim, room := c.roomLocked()
		if !room {
			return fmt.Errorf("%w: cannot install %v", ErrCacheFull, key)
		}
		c.evictLocked(victim)
	}
	c.entries[key] = e
	return nil
}

// pruneGraph drops every entry of a graph whose topology was replaced. An
// artifact still under construction answers for the old topology, so its
// build is cancelled — it must not outlive its graph, and shutdown, which
// cancels via cache membership, must never be blind to a still-running
// pruned build. Its waiters get an error and retry against the new graph.
func (c *artifactCache) pruneGraph(name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for k, e := range c.entries {
		if k.Graph == name {
			e.cancel()
			delete(c.entries, k)
		}
	}
}

// shutdown cancels every in-flight build, rejects new ones from then on,
// and waits for the build goroutines to drain or ctx to expire. Completed
// artifacts stay queryable throughout.
func (c *artifactCache) shutdown(ctx context.Context) error {
	c.mu.Lock()
	c.draining = true
	for _, e := range c.entries {
		e.cancel()
	}
	c.mu.Unlock()
	done := make(chan struct{})
	go func() {
		c.builds.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: builds still draining at shutdown deadline: %w", ctx.Err())
	}
}

// len counts the slots in use, completed and in flight.
func (c *artifactCache) len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.entries)
}
