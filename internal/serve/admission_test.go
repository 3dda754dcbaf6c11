package serve

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestLaneShedsBeyondQueue pins the lane arithmetic: width holders run,
// maxQueue waiters queue, and the next arrival sheds instead of queueing.
func TestLaneShedsBeyondQueue(t *testing.T) {
	l := newLane(laneFast, 1, 1)
	ctx := context.Background()
	if err := l.acquire(ctx); err != nil {
		t.Fatalf("first acquire: %v", err)
	}

	// Second acquire queues (bounded); run it in a goroutine.
	queued := make(chan error, 1)
	go func() {
		queued <- l.acquire(ctx)
	}()
	waitQueueDepth(t, l, 1)

	// Third acquire: queue full, must shed synchronously.
	err := l.acquire(ctx)
	var shed *ShedError
	if !errors.As(err, &shed) {
		t.Fatalf("over-queue acquire returned %v, want ShedError", err)
	}
	if shed.Lane != laneFast || shed.RetryAfter <= 0 {
		t.Fatalf("shed error %+v malformed", shed)
	}

	// Release the holder: the queued waiter gets the slot.
	l.release()
	if err := <-queued; err != nil {
		t.Fatalf("queued acquire: %v", err)
	}
	l.release()
}

// TestLaneAcquireHonoursContext: a queued waiter leaves when its request
// context dies, and the queue depth returns to zero.
func TestLaneAcquireHonoursContext(t *testing.T) {
	l := newLane(laneFast, 1, 4)
	if err := l.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- l.acquire(ctx) }()
	waitQueueDepth(t, l, 1)
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled acquire returned %v", err)
	}
	waitQueueDepth(t, l, 0)
	l.release()
}

// TestLaneSlotParkUnparkIdempotent pins the slot-juggling contract the
// park/unpark path and endpoint's deferred release rely on, on the request
// record that carries the slot: release frees exactly what is held, never
// double-frees, and a failed unpark leaves the slot unheld.
func TestLaneSlotParkUnparkIdempotent(t *testing.T) {
	l := newLane(laneFast, 1, 0)
	s := &request{lane: l}
	ctx := context.Background()
	if err := s.acquire(ctx); err != nil {
		t.Fatal(err)
	}
	s.park()
	s.park() // idempotent
	if len(l.slots) != 0 {
		t.Fatal("slot still occupied after park")
	}
	if err := s.unpark(ctx); err != nil {
		t.Fatal(err)
	}
	if err := s.unpark(ctx); err != nil { // idempotent while held
		t.Fatal(err)
	}
	s.release()
	s.release() // idempotent
	if len(l.slots) != 0 {
		t.Fatal("lane corrupted by repeated release")
	}

	// Failed unpark (slot taken, context dead) leaves the handle unheld,
	// so the deferred release is a no-op rather than a slot theft.
	if err := s.acquire(ctx); err != nil {
		t.Fatal(err)
	}
	s.park()
	other := &request{lane: l}
	if err := other.acquire(ctx); err != nil {
		t.Fatal(err)
	}
	dead, cancel := context.WithCancel(ctx)
	cancel()
	if err := s.unpark(dead); !errors.Is(err, context.Canceled) {
		t.Fatalf("unpark under dead context returned %v", err)
	}
	s.release() // must not free other's slot
	if len(l.slots) != 1 {
		t.Fatal("failed unpark's release stole another request's slot")
	}
	other.release()
}

// TestBreakerStateMachine walks closed → open → half-open → closed with
// a controlled clock, including the doubled cooldown on a re-trip and
// the single-probe rule while half-open.
func TestBreakerStateMachine(t *testing.T) {
	b := newBreaker(2, time.Second)
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
	b := newBreaker(1, time.Second)
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
	for l.queueDepth() != want {
		if time.Now().After(deadline) {
			t.Fatalf("queue depth %d never reached %d", l.queueDepth(), want)
		}
		time.Sleep(time.Millisecond)
	}
}
