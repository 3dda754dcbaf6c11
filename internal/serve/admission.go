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
//   - The SLOW lane is the build pool: Config.Workers build slots, and a
//     wait queue (Config.SlowLaneQueue) bounding how many more cold
//     builds may be PENDING before new ones are shed with 503 + a
//     Retry-After computed from live pool occupancy and the per-kind
//     build-duration histograms — an honest estimate of when a retry
//     will find a free slot.
//
// Both are instances of one type, lane: admit counts an arrival in or
// sheds it, wait takes a slot, release gives it back. The invariant
// joining the two: a request that must wait on a build PARKS its
// fast-lane slot (releases it, re-enters the lane when the build
// completes), so however many requests are blocked on cold builds, warm
// traffic keeps flowing through the fast lane — even at Workers=1.

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/obs"
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

// lane is a bounded admission lane: width slots plus a bounded wait
// queue. pending counts everything admitted and not yet released, holding
// a slot or waiting for one; an arrival past width+queue sheds instead of
// queueing, so the goroutine pile a saturated server accumulates is
// capped by construction. The server runs two: the fast lane of request
// slots and the slow lane of build-pool slots.
type lane struct {
	slots   chan struct{}
	pending atomic.Int64
	bound   int64
	shed    *obs.Counter // this lane's reprod_requests_shed_total series
}

// newLane returns a lane of width slots; a negative queue means none.
func newLane(name string, width, queue int, shed *obs.CounterVec) *lane {
	return &lane{slots: make(chan struct{}, width), bound: int64(width + max(queue, 0)), shed: shed.With(name)}
}

// admit counts an arrival into the lane without blocking, or sheds it
// when the lane is full: the shed is counted and the arrival is not.
// ahead is what the arrival found pending, for a Retry-After estimate.
func (l *lane) admit() (ahead int64, ok bool) {
	if ahead = l.pending.Add(1) - 1; ahead < l.bound {
		return ahead, true
	}
	l.pending.Add(-1)
	l.shed.Inc()
	return ahead, false
}

// wait takes a slot for an admitted arrival, blocking while none is free.
// An arrival whose ctx ends first leaves the lane and gets ctx.Err().
func (l *lane) wait(ctx context.Context) error {
	// A free slot is taken without calling ctx.Done, which may allocate.
	select {
	case l.slots <- struct{}{}:
		return nil
	default:
	}
	select {
	case l.slots <- struct{}{}:
		return nil
	case <-ctx.Done():
		l.pending.Add(-1)
		return ctx.Err()
	}
}

// release frees a held slot and its holder's place in the lane.
func (l *lane) release() {
	<-l.slots
	l.pending.Add(-1)
}

// queued reports how many admitted arrivals wait for a slot.
func (l *lane) queued() int64 { return max(l.pending.Load()-int64(len(l.slots)), 0) }

// A request's handle on its fast-lane slot is the request record itself
// (middleware.go): it is owned by the request goroutine, never shared, which
// makes release idempotent and lets Server.get park the slot mid-request.

// hold waits for a slot for a request its lane has admitted (endpoint
// admits, and sheds what the lane refuses).
func (rq *request) hold(ctx context.Context) error {
	err := rq.lane.wait(ctx)
	rq.held = err == nil
	return err
}

// park releases the slot, and the request's place in the lane, while the
// request blocks on a build.
func (rq *request) park() { rq.release() }

// unpark re-enters the lane after the build completes. Already-admitted
// work is never shed — it only waits for a free slot or its own
// cancellation, and the wait is short: fast slots are only ever held for
// microsecond compute, never across build waits. On failure (request
// cancelled) the slot stays unheld, so release stays balanced.
func (rq *request) unpark(ctx context.Context) error {
	if rq.held {
		return nil
	}
	rq.lane.pending.Add(1)
	return rq.hold(ctx)
}

// release frees the slot if held; safe to call in every terminal path.
func (rq *request) release() {
	if rq.held {
		rq.lane.release()
		rq.held = false
	}
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
	pool := int64(cap(s.slow.slots))
	waves := (pending + pool) / pool // ceil((pending+1)/pool)
	d := time.Duration(float64(waves) * p50 * float64(time.Second))
	return min(max(d, time.Second), 5*time.Minute)
}
