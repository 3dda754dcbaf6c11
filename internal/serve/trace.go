package serve

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bsp"
)

// Build lifecycle states, in the order a build moves through them. Every
// build ends in exactly one of the four terminal states.
const (
	BuildQueued    = "queued"    // waiting for a build-pool slot
	BuildRunning   = "running"   // engines executing
	BuildDone      = "done"      // artifact published
	BuildCancelled = "cancelled" // last waiter left (or the server drained)
	BuildFailed    = "failed"    // build returned a non-cancellation error
	BuildPanicked  = "panicked"  // build panicked; recovered into a failed entry
	BuildTimedOut  = "timed_out" // exceeded the server-side Config.BuildTimeout
)

// recentBuilds bounds the ring of completed build traces /builds retains.
const recentBuilds = 64

// buildTrace accumulates the structured lifecycle of one detached build:
// the enqueue → slot-acquired → engine-rounds → terminal-state timeline,
// the waiter high-water mark, and the live engine counters fed by the
// build's observers. The counters and the timeline are guarded by mu: the
// observers take it once per round or APSP block (the oracle's APSP
// fan-out reports from every worker goroutine), the timeline a handful of
// times per build.
type buildTrace struct {
	id  int64
	key Key

	// Waiter bookkeeping, written under the cache lock alongside entry.waiters.
	waiters    atomic.Int64
	waiterHigh atomic.Int64

	mu         sync.Mutex
	stats      bsp.Stats // engine progress, summed by the observers
	state      string
	enqueuedAt time.Time
	slotAt     time.Time // zero until the build-pool slot is acquired
	finishedAt time.Time // zero until terminal
	errMsg     string
}

// setWaiters records the current waiter count (and its high-water mark).
// Called from artifactCache.addWaiterLocked, the one place entry.waiters changes.
func (t *buildTrace) setWaiters(n int) {
	t.waiters.Store(int64(n))
	maxStore(&t.waiterHigh, int64(n))
}

func maxStore(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// markRunning stamps the build-pool slot acquisition.
func (t *buildTrace) markRunning() {
	t.mu.Lock()
	t.state = BuildRunning
	t.slotAt = time.Now()
	t.mu.Unlock()
}

// finish stamps the terminal state; err is nil for BuildDone.
func (t *buildTrace) finish(state string, err error) {
	t.mu.Lock()
	t.state = state
	if err != nil {
		t.errMsg = err.Error()
	}
	t.finishedAt = time.Now()
	t.mu.Unlock()
}

// BuildTraceInfo is the JSON snapshot of one build's trace, served by
// /builds. For an in-flight build RunMillis is the time spent so far and
// the engine counters are live — two scrapes of the same running build see
// them grow. A completed build's trace is its artifact's cost line: the
// counters sum every engine the build observed, so they equal the
// artifact's own bsp.Stats (for an oracle, its clustering's plus
// APSPStats), and CLUSTER2 builds also count the preliminary CLUSTER pass
// their result's Stats leave out. A diameter build's two quotient iFUB
// runs — graph.ExactDiameterContext on a bsp.Engine with no observer, and
// ExactDiameterWeightedContext on bsp.WeightedEngine, which takes none —
// are counted by neither the trace nor the result's Stats.
type BuildTraceInfo struct {
	ID    int64  `json:"id"`
	Key   string `json:"key"`
	State string `json:"state"`

	EnqueuedAt     time.Time `json:"enqueued_at"`
	SlotWaitMillis float64   `json:"slot_wait_millis"` // enqueue → build-pool slot
	RunMillis      float64   `json:"run_millis"`       // slot → now (running) or terminal state

	Waiters         int64 `json:"waiters"`
	WaiterHighWater int64 `json:"waiter_high_water"`

	BSPRounds      int64 `json:"bsp_rounds"`
	BSPPullRounds  int64 `json:"bsp_pull_rounds"`
	ArcsScanned    int64 `json:"arcs_scanned"`
	Relaxations    int64 `json:"relaxations"`
	BucketsSettled int64 `json:"buckets_settled"`
	MaxFrontier    int64 `json:"max_frontier"`

	Error string `json:"error,omitempty"`
}

// info snapshots the trace.
func (t *buildTrace) info() BuildTraceInfo {
	t.mu.Lock()
	inf := BuildTraceInfo{
		ID:         t.id,
		Key:        t.key.String(),
		State:      t.state,
		EnqueuedAt: t.enqueuedAt,
		Error:      t.errMsg,

		BSPRounds:      int64(t.stats.Rounds),
		BSPPullRounds:  int64(t.stats.PullRounds),
		ArcsScanned:    t.stats.Messages,
		Relaxations:    t.stats.Relaxations,
		BucketsSettled: int64(t.stats.Buckets),
		MaxFrontier:    int64(t.stats.MaxFrontier),
	}
	switch {
	case !t.slotAt.IsZero():
		inf.SlotWaitMillis = millisBetween(t.enqueuedAt, t.slotAt)
		end := t.finishedAt
		if end.IsZero() {
			end = time.Now()
		}
		inf.RunMillis = millisBetween(t.slotAt, end)
	case !t.finishedAt.IsZero():
		// Terminal without ever acquiring a slot (cancelled while queued):
		// the whole lifetime was slot wait.
		inf.SlotWaitMillis = millisBetween(t.enqueuedAt, t.finishedAt)
	default:
		inf.SlotWaitMillis = millisBetween(t.enqueuedAt, time.Now())
	}
	t.mu.Unlock()
	inf.Waiters = t.waiters.Load()
	inf.WaiterHighWater = t.waiterHigh.Load()
	return inf
}

func millisBetween(a, b time.Time) float64 {
	return float64(b.Sub(a).Nanoseconds()) / 1e6
}

// startTrace mints a trace for a new detached build and registers it as
// in-flight.
func (s *Server) startTrace(key Key) *buildTrace {
	tr := &buildTrace{id: s.nextBuildID.Add(1), key: key, state: BuildQueued, enqueuedAt: time.Now()}
	s.traceMu.Lock()
	s.building[tr.id] = tr
	s.traceMu.Unlock()
	return tr
}

// endTrace moves a terminal trace from the in-flight set to the recent
// ring (newest first, bounded at recentBuilds).
func (s *Server) endTrace(tr *buildTrace) {
	inf := tr.info()
	s.traceMu.Lock()
	delete(s.building, tr.id)
	s.recent = append(s.recent, BuildTraceInfo{})
	copy(s.recent[1:], s.recent)
	s.recent[0] = inf
	if len(s.recent) > recentBuilds {
		s.recent = s.recent[:recentBuilds]
	}
	s.traceMu.Unlock()
}

// BuildTracesResponse is the JSON shape of /builds: every in-flight build
// (queued or running, engine counters live) plus the most recent
// completed ones, newest first.
type BuildTracesResponse struct {
	InFlight []BuildTraceInfo `json:"in_flight"`
	Recent   []BuildTraceInfo `json:"recent"`
}

// BuildTraces snapshots the build tracing state behind /builds.
func (s *Server) BuildTraces() BuildTracesResponse {
	s.traceMu.Lock()
	inFlight := make([]BuildTraceInfo, 0, len(s.building))
	for _, tr := range s.building {
		inFlight = append(inFlight, tr.info())
	}
	recent := append([]BuildTraceInfo(nil), s.recent...)
	s.traceMu.Unlock()
	sort.Slice(inFlight, func(i, j int) bool { return inFlight[i].ID < inFlight[j].ID })
	return BuildTracesResponse{InFlight: inFlight, Recent: recent}
}

// buildObserver returns the bsp.Observer installed on every engine of a
// build: it feeds both the server-wide engine counters (/metrics) and the
// build's own trace (/builds). Safe for concurrent use, as the Observer
// contract requires.
func (s *Server) buildObserver(tr *buildTrace) bsp.Observer {
	m := s.met
	return func(d bsp.Stats) {
		m.engRounds.Add(int64(d.Rounds))
		m.engPullRounds.Add(int64(d.PullRounds))
		m.engArcs.Add(d.Messages)
		m.engRelaxations.Add(d.Relaxations)
		m.engBuckets.Add(int64(d.Buckets))
		tr.mu.Lock()
		tr.stats.Add(d)
		tr.mu.Unlock()
	}
}
