package serve

// admission.go is the two-lane admission control the cost model calls
// for: the paper's decomposition makes queries microsecond table lookups
// and builds multi-second parallel phases, so one shared worker pool is
// exactly wrong — a cached /distance queueing behind a cold oracle build
// inverts the whole point of the oracle. Admission therefore splits:
//
//   - The FAST lane admits a request's own compute: parameter parsing,
//     cache lookups, point and batch queries against completed
//     artifacts, response encoding. Its width is Config.Workers and its
//     wait queue is small and bounded — fast work is microseconds, so a
//     deep queue only ever means the server is past saturation, and the
//     request is shed with 503 + a short Retry-After instead of being
//     buried.
//   - The SLOW lane admits cold builds. Builds already execute under the
//     build pool (Config.Workers slots); the lane bounds how many builds
//     may be PENDING (queued + running) before new ones are shed with
//     503 + a Retry-After computed from live pool occupancy and the
//     per-kind build-duration histograms — an honest estimate of when a
//     retry will find a free slot.
//
// The invariant joining the two: a request that must wait on a build
// PARKS its fast-lane slot (releases it, re-acquires it when the build
// completes), so however many requests are blocked on cold builds, warm
// traffic keeps flowing through the fast lane — even at Workers=1.

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"sync/atomic"
	"time"
)

// Lane names, used as the metric label on reprod_requests_shed_total.
const (
	laneFast = "fast"
	laneSlow = "slow"
)

// ShedError is the load-shedding rejection: the lane's bounded wait
// queue is full, so the request is refused immediately instead of
// queueing past saturation. classify maps it to 503 with a Retry-After
// header carrying the estimate.
type ShedError struct {
	Lane       string
	RetryAfter time.Duration
}

func (e *ShedError) Error() string {
	return fmt.Sprintf("serve: %s lane saturated, retry in %s", e.Lane, e.RetryAfter.Round(time.Second))
}

// retryAfterSeconds renders a hint as the integer seconds form of the
// Retry-After header, always at least 1 — a zero would invite an
// immediate retry into the same saturated lane.
func retryAfterSeconds(d time.Duration) string {
	return strconv.FormatInt(max(int64(math.Ceil(d.Seconds())), 1), 10)
}

// lane is a bounded admission lane: width concurrent holders plus a
// bounded wait queue. Acquire beyond width+queue sheds instead of
// queueing, so the goroutine pile a saturated server accumulates is
// capped by construction.
type lane struct {
	name     string
	slots    chan struct{}
	queued   atomic.Int64 // requests blocked waiting for a slot
	maxQueue int
}

func newLane(name string, width, maxQueue int) *lane {
	if maxQueue < 0 {
		maxQueue = 0
	}
	return &lane{name: name, slots: make(chan struct{}, width), maxQueue: maxQueue}
}

// acquire takes a slot, queueing (bounded) when none is free. It returns
// a *ShedError when the queue is full and ctx.Err() when the caller
// disconnects while queued.
func (l *lane) acquire(ctx context.Context) error { return l.enter(ctx, true) }

// reacquire re-admits a request that parked its slot to wait on a build.
// Already-admitted work is never shed — it only waits for a free slot or
// its own cancellation. The wait is bounded in practice: fast slots are
// only ever held for microsecond compute, never across build waits.
func (l *lane) reacquire(ctx context.Context) error { return l.enter(ctx, false) }

func (l *lane) enter(ctx context.Context, shed bool) error {
	select {
	case l.slots <- struct{}{}:
		return nil
	default:
	}
	if l.queued.Add(1) > int64(l.maxQueue) && shed {
		l.queued.Add(-1)
		return &ShedError{Lane: l.name, RetryAfter: time.Second}
	}
	defer l.queued.Add(-1)
	select {
	case l.slots <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (l *lane) release() { <-l.slots }

// queueDepth reports how many requests are blocked waiting for a slot,
// feeding the reprod_fast_lane_queue_depth gauge.
func (l *lane) queueDepth() int64 { return l.queued.Load() }

// A request's handle on its fast-lane slot is the request record itself
// (middleware.go): it is owned by the request goroutine, never shared, which
// makes release idempotent and lets Server.get park the slot mid-request.

// acquire admits the request to the fast lane, shedding when it is
// saturated.
func (rq *request) acquire(ctx context.Context) error {
	if err := rq.lane.acquire(ctx); err != nil {
		return err
	}
	rq.held = true
	return nil
}

// park releases the slot while the request blocks on a build.
func (rq *request) park() { rq.release() }

// unpark re-acquires the slot after the build completes. On failure
// (request cancelled) the slot stays unheld, so release stays balanced.
func (rq *request) unpark(ctx context.Context) error {
	if rq.held {
		return nil
	}
	if err := rq.lane.reacquire(ctx); err != nil {
		return err
	}
	rq.held = true
	return nil
}

// release frees the slot if held; safe to call in every terminal path.
func (rq *request) release() {
	if rq.held {
		rq.lane.release()
		rq.held = false
	}
}

// admitBuild is the slow lane's gate, called under the cache lock right
// before a new detached build would be created (that lock is what makes
// its load-then-add atomic). The lane is saturated when every
// build-pool slot is occupied and the wait queue (pending builds beyond
// the pool) is at its bound; a new build then sheds with an honest
// retry estimate instead of joining a queue the client would time out
// of anyway. Joins on in-flight builds are never shed — they add no
// work.
func (s *Server) admitBuild(kind string) error {
	pending := s.slowPending.Load()
	if pending >= int64(cap(s.buildSem)+s.cfg.SlowLaneQueue) {
		s.met.shed.With(laneSlow).Inc()
		return &ShedError{Lane: laneSlow, RetryAfter: s.buildRetryAfter(kind, pending)}
	}
	s.slowPending.Add(1)
	return nil
}

// buildRetryAfter estimates when a shed build request will find a free
// slot: the pending builds drain pool-wide, so the wait is roughly
// ceil(pending+1 / pool) build durations. The duration estimate is the
// median of the per-kind build-duration histogram — live data from this
// process on this graph — falling back to one second before the first
// build of a kind completes. Clamped to [1s, 5m]: below a second the
// header is useless, above five minutes the client should re-plan, not
// camp.
func (s *Server) buildRetryAfter(kind string, pending int64) time.Duration {
	p50 := s.met.buildLatency.With(kind).Quantile(0.5)
	if math.IsNaN(p50) || p50 <= 0 {
		p50 = 1
	}
	pool := int64(cap(s.buildSem))
	waves := (pending + pool) / pool // ceil((pending+1)/pool)
	d := time.Duration(float64(waves) * p50 * float64(time.Second))
	return min(max(d, time.Second), 5*time.Minute)
}
