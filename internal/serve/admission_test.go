package serve

import (
	"context"
	"errors"
	"testing"
	"time"
)

// acquire admits rq to its lane and waits for a slot, as endpoint does.
func acquire(ctx context.Context, rq *request) error {
	if _, ok := rq.lane.admit(); !ok {
		return &ShedError{Lane: laneFast, RetryAfter: time.Second}
	}
	return rq.hold(ctx)
}

// TestLaneShedsBeyondQueue pins the lane arithmetic: width holders run,
// queue more arrivals wait, and the next arrival sheds instead of
// queueing — counted on the lane's own shed series, and not in pending.
func TestLaneShedsBeyondQueue(t *testing.T) {
	met := newMetrics()
	l := newLane(laneFast, 1, 1, met.shed)
	ctx := context.Background()
	if ahead, ok := l.admit(); !ok || ahead != 0 {
		t.Fatalf("first admit: ahead %d, ok %v", ahead, ok)
	}
	if err := l.wait(ctx); err != nil {
		t.Fatalf("first wait: %v", err)
	}

	// The second arrival is admitted and waits (bounded); run it in a
	// goroutine.
	if ahead, ok := l.admit(); !ok || ahead != 1 {
		t.Fatalf("second admit: ahead %d, ok %v", ahead, ok)
	}
	queued := make(chan error, 1)
	go func() {
		queued <- l.wait(ctx)
	}()
	waitQueueDepth(t, l, 1)

	// Third arrival: queue full, must shed synchronously.
	if ahead, ok := l.admit(); ok || ahead != 2 {
		t.Fatalf("over-queue admit: ahead %d, ok %v; want a shed behind 2", ahead, ok)
	}
	if n := met.shed.With(laneFast).Value(); n != 1 {
		t.Fatalf("fast-lane sheds = %d, want 1", n)
	}
	if n := met.shed.With(laneSlow).Value(); n != 0 {
		t.Fatalf("slow-lane sheds = %d after a fast-lane shed", n)
	}
	if p := l.pending.Load(); p != 2 {
		t.Fatalf("pending = %d after a shed, want the 2 admitted", p)
	}

	// Release the holder: the queued waiter gets the slot.
	l.release()
	if err := <-queued; err != nil {
		t.Fatalf("queued wait: %v", err)
	}
	l.release()
	if p := l.pending.Load(); p != 0 {
		t.Fatalf("pending = %d after every release", p)
	}
}

// TestLaneAcquireHonoursContext: a queued waiter leaves the lane when its
// request context dies, and the queue depth returns to zero.
func TestLaneAcquireHonoursContext(t *testing.T) {
	l := newLane(laneFast, 1, 4, newMetrics().shed)
	rq := &request{lane: l}
	if err := acquire(context.Background(), rq); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- acquire(ctx, &request{lane: l}) }()
	waitQueueDepth(t, l, 1)
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled acquire returned %v", err)
	}
	waitQueueDepth(t, l, 0)
	if p := l.pending.Load(); p != 1 {
		t.Fatalf("pending = %d, want only the holder", p)
	}
	rq.release()
}

// TestLaneSlotParkUnparkIdempotent pins the slot-juggling contract the
// park/unpark path and endpoint's deferred release rely on, on the request
// record that carries the slot: release frees exactly what is held, never
// double-frees, a parked request leaves the lane entirely, and a failed
// unpark leaves the slot unheld.
func TestLaneSlotParkUnparkIdempotent(t *testing.T) {
	l := newLane(laneFast, 1, 0, newMetrics().shed)
	s := &request{lane: l}
	ctx := context.Background()
	if err := acquire(ctx, s); err != nil {
		t.Fatal(err)
	}
	s.park()
	s.park() // idempotent
	if len(l.slots) != 0 || l.pending.Load() != 0 {
		t.Fatalf("parked request still in the lane: %d slots, %d pending", len(l.slots), l.pending.Load())
	}
	if err := s.unpark(ctx); err != nil {
		t.Fatal(err)
	}
	if err := s.unpark(ctx); err != nil { // idempotent while held
		t.Fatal(err)
	}
	if l.pending.Load() != 1 {
		t.Fatalf("pending = %d after unpark, want 1", l.pending.Load())
	}
	s.release()
	s.release() // idempotent
	if len(l.slots) != 0 || l.pending.Load() != 0 {
		t.Fatal("lane corrupted by repeated release")
	}

	// Failed unpark (slot taken, context dead) leaves the handle unheld,
	// so the deferred release is a no-op rather than a slot theft.
	if err := acquire(ctx, s); err != nil {
		t.Fatal(err)
	}
	s.park()
	other := &request{lane: l}
	if err := acquire(ctx, other); err != nil {
		t.Fatal(err)
	}
	dead, cancel := context.WithCancel(ctx)
	cancel()
	if err := s.unpark(dead); !errors.Is(err, context.Canceled) {
		t.Fatalf("unpark under dead context returned %v", err)
	}
	s.release() // must not free other's slot
	if len(l.slots) != 1 || l.pending.Load() != 1 {
		t.Fatal("failed unpark's release stole another request's slot")
	}
	other.release()
}

// TestBreakerStateMachine walks closed → open → half-open → closed with
// a controlled clock, including the doubled cooldown on a re-trip and
// the single-probe rule while half-open.
func TestBreakerStateMachine(t *testing.T) {
	b := newBreaker(2, time.Second, 128)
	key := Key{Graph: "g", Kind: "oracle", Tau: 1, Seed: 1, Algorithm: "cluster"}
	now := time.Unix(1000, 0)

	if _, err := b.allow(key, now); err != nil {
		t.Fatalf("healthy key refused: %v", err)
	}
	if b.failure(key, now) {
		t.Fatal("first failure must not trip a threshold-2 breaker")
	}
	if _, err := b.allow(key, now); err != nil {
		t.Fatalf("under-threshold key refused: %v", err)
	}
	if !b.failure(key, now) {
		t.Fatal("second failure must trip")
	}
	if b.openKeys() != 1 {
		t.Fatalf("openKeys = %d after trip", b.openKeys())
	}

	// Open: refused with the remaining cooldown.
	_, err := b.allow(key, now.Add(400*time.Millisecond))
	var open *BreakerOpenError
	if !errors.As(err, &open) || open.State != breakerOpen {
		t.Fatalf("open breaker returned %v", err)
	}
	if got := open.RetryAfter; got != 600*time.Millisecond {
		t.Fatalf("RetryAfter %v, want remaining 600ms", got)
	}

	// Cooldown expired: exactly one probe; the next caller is refused
	// half-open.
	probe, err := b.allow(key, now.Add(1100*time.Millisecond))
	if err != nil || !probe {
		t.Fatalf("expired cooldown: probe=%v err=%v", probe, err)
	}
	if _, err := b.allow(key, now.Add(1100*time.Millisecond)); !errors.As(err, &open) || open.State != breakerHalfOpen {
		t.Fatalf("second caller during probe got %v, want half-open refusal", err)
	}

	// Failed probe: re-open with doubled cooldown.
	if !b.failure(key, now.Add(1200*time.Millisecond)) {
		t.Fatal("failed probe must re-trip")
	}
	if _, err := b.allow(key, now.Add(2*time.Second)); !errors.As(err, &open) {
		t.Fatalf("re-opened breaker admitted a build: %v", err)
	} else if open.RetryAfter != 1200*time.Millisecond {
		t.Fatalf("re-trip RetryAfter %v, want doubled cooldown remainder 1.2s", open.RetryAfter)
	}

	// A cancelled probe releases the half-open claim without counting.
	probe, err = b.allow(key, now.Add(4*time.Second))
	if err != nil || !probe {
		t.Fatalf("post-cooldown probe: probe=%v err=%v", probe, err)
	}
	b.cancelled(key)
	probe, err = b.allow(key, now.Add(4*time.Second))
	if err != nil || !probe {
		t.Fatalf("probe after cancellation: probe=%v err=%v", probe, err)
	}

	// Success closes and forgets the key entirely.
	b.success(key)
	if b.openKeys() != 0 {
		t.Fatal("success left the breaker open")
	}
	if b.failure(key, now.Add(5*time.Second)) {
		t.Fatal("failure streak must restart from zero after success")
	}
}

// TestBreakerClearGraph: RegisterGraph wipes a graph's records only.
func TestBreakerClearGraph(t *testing.T) {
	b := newBreaker(1, time.Second, 128)
	now := time.Unix(0, 0)
	kA := Key{Graph: "a", Kind: "oracle"}
	kB := Key{Graph: "b", Kind: "oracle"}
	b.failure(kA, now)
	b.failure(kB, now)
	b.clearGraph("a")
	if _, err := b.allow(kA, now); err != nil {
		t.Fatalf("cleared graph still tripped: %v", err)
	}
	if _, err := b.allow(kB, now); err == nil {
		t.Fatal("other graph's breaker was cleared too")
	}
}

// TestBreakerEvictsClosedBeforeOpen pins the table bound's eviction
// order: a closed entry goes before an open one, the least recently failed
// first, and a failure on a key already in the table evicts nothing.
func TestBreakerEvictsClosedBeforeOpen(t *testing.T) {
	b := newBreaker(2, time.Second, 2)
	now := time.Unix(0, 0)
	kA, kB, kC, kD := Key{Graph: "g", Seed: 1}, Key{Graph: "g", Seed: 2}, Key{Graph: "g", Seed: 3}, Key{Graph: "g", Seed: 4}
	tracked := func(want ...Key) {
		t.Helper()
		b.mu.Lock()
		defer b.mu.Unlock()
		if len(b.keys) != len(want) {
			t.Fatalf("table holds %d keys, want %v", len(b.keys), want)
		}
		for _, k := range want {
			if _, ok := b.keys[k]; !ok {
				t.Fatalf("table lost %v, want %v", k, want)
			}
		}
	}
	b.failure(kA, now)
	b.failure(kA, now) // A open
	b.failure(kB, now) // B closed, and newer than A
	b.failure(kC, now) // full: the closed B goes, not the older but open A
	tracked(kA, kC)
	b.failure(kD, now) // the closed C goes
	tracked(kA, kD)
	b.failure(kD, now) // D is tracked: nothing goes, and D opens
	tracked(kA, kD)
	b.failure(kB, now) // both open: the least recently failed, A, goes
	tracked(kD, kB)
	if b.openKeys() != 1 {
		t.Fatalf("openKeys = %d, want D alone", b.openKeys())
	}
}

// failEveryBuild is a FaultInjector that fails every build.
type failEveryBuild struct{}

func (failEveryBuild) BuildStarted(context.Context, Key) error {
	return errors.New("injected build failure")
}

// TestBreakerTableBoundedByMaxArtifacts: a failed build's cache entry is
// removed, so the cache bound does not bound the breaker's table — a
// client minting seeds against a failing build must not grow it past
// MaxArtifacts entries.
func TestBreakerTableBoundedByMaxArtifacts(t *testing.T) {
	s := newBuildServer(t, Config{Workers: 1, MaxArtifacts: 4, FaultInjector: failEveryBuild{}}, "g")
	for seed := uint64(1); seed <= 200; seed++ {
		if _, err := s.Diameter(context.Background(), "g", 2, seed, ""); err == nil {
			t.Fatalf("seed %d: a failing build answered", seed)
		}
	}
	s.breaker.mu.Lock()
	n := len(s.breaker.keys)
	s.breaker.mu.Unlock()
	if n > 4 {
		t.Fatalf("breaker table holds %d keys after 200 failing seeds, want at most MaxArtifacts = 4", n)
	}
	if c := s.cache.len(); c != 0 {
		t.Fatalf("cache holds %d failed builds", c)
	}
}

// TestRetryAfterHelpers pins the header rendering (ceil, floor of 1) and
// the error table's unwrap-chain extraction of the hint.
func TestRetryAfterHelpers(t *testing.T) {
	if got := retryAfterSeconds(0); got != "1" {
		t.Fatalf("retryAfterSeconds(0) = %s", got)
	}
	if got := retryAfterSeconds(1500 * time.Millisecond); got != "2" {
		t.Fatalf("retryAfterSeconds(1.5s) = %s, want ceil 2", got)
	}
	err := &ShedError{Lane: laneSlow, RetryAfter: 3 * time.Second}
	if got := classify(err).retryAfter; got != 3*time.Second {
		t.Fatalf("classify(shed).retryAfter = %v", got)
	}
	wrapped := &wrapErr{err}
	if got := classify(wrapped).retryAfter; got != 3*time.Second {
		t.Fatalf("classify(wrapped shed).retryAfter = %v", got)
	}
	if got := classify(context.Canceled).retryAfter; got != 0 {
		t.Fatalf("classify(plain error).retryAfter = %v", got)
	}
}

type wrapErr struct{ inner error }

func (w *wrapErr) Error() string { return "wrap: " + w.inner.Error() }
func (w *wrapErr) Unwrap() error { return w.inner }

// TestBuildRetryAfterClamps: the slow-lane estimate is wave-scaled and
// clamped to [1s, 5m].
func TestBuildRetryAfterClamps(t *testing.T) {
	s := New(Config{Workers: 2})
	// No histogram data yet: fall back to 1s per wave; an empty pool is
	// one wave.
	if d := s.buildRetryAfter("oracle", 0); d != 1*time.Second {
		t.Fatalf("cold-start estimate %v, want one 1s wave", d)
	}
	// Seed the per-kind histogram with 2s builds: pending=3 on a pool of
	// 2 is two waves → ~4s.
	for i := 0; i < 8; i++ {
		s.met.buildLatency.With("oracle").Observe(2.0)
	}
	d := s.buildRetryAfter("oracle", 3)
	if d < 2*time.Second || d > 10*time.Second {
		t.Fatalf("estimate %v outside the plausible band for 2 waves of ~2s builds", d)
	}
	// Absurd pending counts clamp at 5m.
	if d := s.buildRetryAfter("oracle", 1_000_000); d != 5*time.Minute {
		t.Fatalf("unclamped estimate %v", d)
	}
}

func waitQueueDepth(t *testing.T, l *lane, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for l.queued() != want {
		if time.Now().After(deadline) {
			t.Fatalf("queue depth %d never reached %d", l.queued(), want)
		}
		time.Sleep(time.Millisecond)
	}
}
