// Package serve turns the batch reproduction into an online system: a
// Server loads one or more graphs, builds the paper's artifacts
// (distance oracle, diameter bounds, k-center solutions) on first use, and
// answers point queries over HTTP/JSON from many concurrent clients.
//
// The design follows the paper's own cost split: builds are the expensive
// parallel phase (seconds), queries are O(1) table lookups (microseconds).
// The package is three thin layers around that lookup. Server (this file)
// is the graph registry and the mapping from requests to artifact keys
// (graph, τ, seed, algorithm): it decides whether a new build may start
// and runs it. artifactCache (cache.go) owns everything about the cached
// and in-flight artifacts under its own lock — single-flight entries,
// waiter refcounts, LRU eviction, snapshot inserts, pruning, shutdown —
// and knows nothing of HTTP, lanes or metrics. A build is a detached
// goroutine returning a small typed artifact value. Around them, the
// server deduplicates concurrent builds of the same key single-flight
// style, and admits traffic through two lanes that mirror the cost split,
// two instances of one lane type (admission.go): a FAST lane
// (Config.Workers slots, a small bounded wait queue) for the request's own
// compute — cached-artifact lookups, point and batch queries, encoding —
// and a SLOW lane, the build pool (Config.Workers build slots, a bounded
// queue of pending builds). A request that must wait on a build parks its
// fast-lane slot for the duration, so warm queries never queue behind a
// multi-second decomposition, even at Workers=1. When a lane's bounded
// queue is full the request is load-shed with 503 plus a Retry-After
// header computed from live build-pool occupancy and the per-kind
// build-duration histograms. A key whose builds keep failing trips a
// per-key circuit breaker — an exponential-backoff negative cache with a
// half-open probe (breaker.go) — so a
// poisoned key answers a fast 503 instead of re-burning a build slot,
// and Config.BuildTimeout bounds the slowest cold build server-side
// without capping warm responses (a timed-out build answers 504).
// Builds run detached, on their own goroutine under their own
// context and bounded by the slow lane's slots, with the requests
// for the key counted as waiters: a request that disconnects frees its
// worker slot immediately, and when the last waiter for an in-flight
// build leaves, the build's context is cancelled and the engines stop at
// their next round/bucket/source barrier — a dropped request never leaves
// a multi-second decomposition burning cores for nobody. A cancelled
// build's cache entry is removed, so the key is immediately retryable; so
// is a failed one, and only failures that say something about the key's
// health (panics, timeouts, 5xx build errors — not deterministic 4xx
// rejections) count toward its breaker. Artifacts persisted with
// internal/snapshot can be installed at startup, so a restart skips the
// rebuild entirely; Shutdown cancels the in-flight builds and drains their
// goroutines for a graceful exit.
//
// The server is fully observable while it runs. Every handler sits behind
// middleware that stamps an X-Request-ID, counts requests per path and
// status, and records latency histograms; GET /metrics exports the whole
// surface (cache, build pool, engine work counters) as Prometheus text
// exposition via internal/obs. Each detached build accumulates a
// structured lifecycle trace — enqueue, slot acquisition, live engine
// counters streamed from the engines' observer hooks at their barriers,
// waiter high-water mark, terminal state — served by GET /builds
// (in-flight plus a ring of recent builds). /metrics and /builds are the
// whole inside view: a completed build's trace is its cost line. See
// README.md's Observability section for the metric and trace schema.
//
// Bulk consumers use POST /distance-batch, which answers up to
// MaxBatchPairs (u, v) pairs per request straight off the oracle's flat
// tables — JSON or dense binary frames (batch.go documents the wire
// formats). Batch inputs follow a strict pre-build
// validation rule: every id in the batch is range-checked against the
// graph BEFORE the artifact lookup, so a batch containing even one
// invalid id is rejected with 400 without triggering (or churning a
// cache slot on) a multi-second build — the same reject-before-build
// discipline the point endpoints apply to their u/v parameters. The warm
// batch path reuses pooled request scratch and allocates nothing per
// pair, a guarantee pinned by AllocsPerRun regression tests.
package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/snapshot"
)

// Config configures a Server.
type Config struct {
	// Workers bounds the number of requests executing (building or
	// querying) at once; further requests queue. Non-positive selects
	// runtime.GOMAXPROCS(0).
	Workers int

	// DefaultTau is used when a request does not specify τ; non-positive
	// selects the per-artifact paper default (core.DefaultOracleTau for
	// oracles, the quotient-size heuristic for diameter).
	DefaultTau int

	// DefaultSeed is used when a request does not specify a seed. Clients
	// that omit build parameters then share one artifact — in the daemon,
	// the one prebuilt (or snapshot-loaded) at startup.
	DefaultSeed uint64

	// DefaultAlgorithm ("cluster" or "cluster2") is used when a request
	// does not specify algo. Empty means "cluster".
	DefaultAlgorithm string

	// BuildWorkers is the parallelism handed to the decomposition builds
	// (core.Options.Workers). Non-positive selects GOMAXPROCS.
	BuildWorkers int

	// MaxArtifacts bounds the artifact cache. Build parameters are
	// client-controlled, so without a bound any client could mint
	// unlimited (tau, seed) keys and OOM the server one multi-second
	// build at a time. At the cap the least-recently-used completed
	// artifact is evicted; if every slot is an in-flight build, new keys
	// are rejected with ErrCacheFull. Non-positive selects 128.
	MaxArtifacts int

	// RequestLog, when non-nil, receives one entry per completed HTTP
	// request from the instrumentation middleware — the daemon's
	// structured request log. It runs on the request goroutine after the
	// response is written, so it must not block.
	RequestLog func(RequestLogEntry)

	// FastLaneQueue bounds how many requests may wait for a fast-lane
	// slot before new arrivals are load-shed with 503 + Retry-After.
	// Fast-lane work is microseconds, so a deep queue only ever means the
	// server is past saturation. Zero selects 256; negative means no
	// queue (shed whenever every slot is busy).
	FastLaneQueue int

	// SlowLaneQueue bounds how many cold builds may be pending (queued
	// plus running) beyond the build pool before new build requests are
	// load-shed with 503 + a Retry-After estimated from live pool
	// occupancy and the build-duration histograms. Zero selects
	// 4×Workers; negative means no queue (shed whenever every build slot
	// is busy).
	SlowLaneQueue int

	// BuildTimeout, when positive, bounds the running phase of every
	// detached build server-side: a build that exceeds it is cancelled at
	// its next engine barrier, its waiters answer 504, and the failure
	// counts against the key's circuit breaker. Warm responses are never
	// capped — the timeout applies to builds, not requests.
	BuildTimeout time.Duration

	// BreakerThreshold is how many consecutive terminal build failures
	// (failed, panicked, timed out — not cancelled) open a key's circuit
	// breaker. Non-positive selects 3.
	BreakerThreshold int

	// BreakerCooldown is the negative-cache duration after the breaker
	// first opens; it doubles on every further failure (capped at 5m)
	// and a half-open probe build is admitted once it expires.
	// Non-positive selects 2s.
	BreakerCooldown time.Duration

	// FaultInjector, when non-nil, receives a callback at the start of
	// every detached build. It exists ONLY for fault-injection tests
	// (internal/serve/chaos): blocking in the hook delays the build,
	// returning an error fails it, panicking exercises the panic
	// containment. Production configurations leave it nil.
	FaultInjector FaultInjector
}

// FaultInjector is the test-only fault-injection hook set threaded
// through the build pipeline by Config.FaultInjector. Implementations
// live in internal/serve/chaos; production servers run with none.
type FaultInjector interface {
	// BuildStarted runs on the detached build goroutine after the build
	// acquires its pool slot and before the engines start, under the
	// build's context (including any BuildTimeout). Blocking delays the
	// build and must honour ctx; a non-nil return fails the build with
	// that error; a panic is contained by the build's recover exactly
	// like an engine panic.
	BuildStarted(ctx context.Context, key Key) error
}

// Key identifies a build artifact: which graph, which algorithm, and the
// parameters the build is deterministic in. Kind separates artifact
// families that share a graph ("oracle", "diameter", "kcenter"); Tau
// doubles as k for the kcenter family.
type Key struct {
	Graph     string
	Kind      string
	Tau       int
	Seed      uint64
	Algorithm string
}

func (k Key) String() string {
	return fmt.Sprintf("%s/%s(tau=%d,seed=%d,%s)", k.Graph, k.Kind, k.Tau, k.Seed, k.Algorithm)
}

// ErrCacheFull is returned when a new artifact key arrives while every
// cache slot holds an in-flight build; classify maps it to 503.
var ErrCacheFull = errors.New("serve: artifact cache full of in-flight builds")

// ErrShuttingDown is returned for build requests arriving after Shutdown
// began. Completed artifacts remain queryable; only new builds are
// rejected, so the drain cannot be extended indefinitely by fresh traffic.
var ErrShuttingDown = errors.New("serve: server shutting down")

// Server is the query service. Create with New, register graphs (and
// optionally snapshot artifacts), then serve via Handler. It is the thin
// layer around the artifact cache: the graph registry, the mapping from
// requests to artifact keys, the admission decision for new builds, and
// the detached build runner.
type Server struct {
	cfg  Config
	fast *lane // the request slots (admission.go)

	// slow is the build pool: at most Config.Workers builds execute
	// engines at once. Request slots do not cover builds end to end — a
	// waiter parks its slot while blocked and frees it the moment it
	// disconnects — so without this bound a disconnect loop could stack
	// cancelled "zombie" builds, each still unwinding to its next barrier
	// with GOMAXPROCS-wide engines, beside the fresh ones. Queued builds
	// whose context is cancelled leave the lane without ever running.
	slow *lane

	// breaker is the per-key build circuit breaker (breaker.go).
	breaker *breaker

	// cache holds the artifacts and the in-flight builds (cache.go).
	cache *artifactCache

	mu     sync.RWMutex // guards the graph registry only
	graphs map[string]*graph.Graph

	met *metrics

	// Request-id minting (middleware.go).
	idBase string
	reqSeq atomic.Int64

	// Build tracing (trace.go): in-flight traces by build id, plus a
	// bounded ring of completed ones, newest first.
	traceMu     sync.Mutex
	nextBuildID atomic.Int64
	building    map[int64]*buildTrace
	recent      []BuildTraceInfo
}

// New returns a Server with an empty graph registry.
func New(cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxArtifacts <= 0 {
		cfg.MaxArtifacts = 128
	}
	// A negative lane queue (none) is clamped by newLane.
	if cfg.FastLaneQueue == 0 {
		cfg.FastLaneQueue = 256
	}
	if cfg.SlowLaneQueue == 0 {
		cfg.SlowLaneQueue = 4 * cfg.Workers
	}
	met := newMetrics()
	s := &Server{
		cfg:      cfg,
		fast:     newLane(laneFast, cfg.Workers, cfg.FastLaneQueue, met.shed),
		slow:     newLane(laneSlow, cfg.Workers, cfg.SlowLaneQueue, met.shed),
		breaker:  newBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown, cfg.MaxArtifacts),
		graphs:   make(map[string]*graph.Graph),
		met:      met,
		idBase:   fmt.Sprintf("%08x", time.Now().UnixNano()&0xffffffff),
		building: make(map[int64]*buildTrace),
	}
	s.cache = newArtifactCache(cfg.MaxArtifacts, s.met.evictions.Inc)
	s.registerServerGauges()
	return s
}

// RegisterGraph makes g queryable under the given name, replacing any
// previous registration. Artifacts cached (or under construction) for an
// earlier graph of the same name are dropped: they answer for the old
// topology.
func (s *Server) RegisterGraph(name string, g *graph.Graph) error {
	if name == "" {
		return errors.New("serve: empty graph name")
	}
	if g == nil || g.NumNodes() == 0 {
		return errors.New("serve: nil or empty graph")
	}
	s.mu.Lock()
	_, replaced := s.graphs[name]
	s.graphs[name] = g
	s.mu.Unlock()
	// Swap first, prune second: a build started in between already runs on
	// the new graph and is merely cancelled (its waiters retry), whereas the
	// other order could cache an artifact of the old topology for good.
	if replaced {
		s.cache.pruneGraph(name)
	}
	// The breaker's failure records belong to the old topology; a fresh
	// graph starts with a clean slate.
	s.breaker.clearGraph(name)
	return nil
}

// InstallSnapshot registers the artifact's graph under its snapshot name
// and, if the artifact carries an oracle, seeds the cache with it — a
// restart path that skips the oracle build entirely.
func (s *Server) InstallSnapshot(a *snapshot.Artifact) error {
	if a == nil || a.Graph == nil {
		return errors.New("serve: nil snapshot artifact")
	}
	name := a.Meta.GraphName
	if name == "" {
		return errors.New("serve: snapshot has no graph name")
	}
	if err := s.RegisterGraph(name, a.Graph); err != nil {
		return err
	}
	if a.Oracle == nil {
		return nil
	}
	algo := a.Meta.Algorithm
	if algo == "" {
		algo = "cluster"
	}
	key := Key{Graph: name, Kind: "oracle", Tau: a.Meta.Tau, Seed: a.Meta.Seed, Algorithm: algo}
	if err := s.cache.put(key, artifact{oracle: a.Oracle}); err != nil {
		return err
	}
	s.met.installs.Add(1)
	return nil
}

// ErrUnknownGraph is wrapped by Graph for unregistered names; classify
// maps it to 404.
var ErrUnknownGraph = errors.New("serve: unknown graph")

// Graph returns the registered graph, or an error (wrapping
// ErrUnknownGraph) naming the known graphs.
func (s *Server) Graph(name string) (*graph.Graph, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if g, ok := s.graphs[name]; ok {
		return g, nil
	}
	return nil, fmt.Errorf("%w %q (have %v)", ErrUnknownGraph, name, s.graphNamesLocked())
}

// GraphNames lists the registered graphs in sorted order.
func (s *Server) GraphNames() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.graphNamesLocked()
}

func (s *Server) graphNamesLocked() []string {
	names := make([]string, 0, len(s.graphs))
	for name := range s.graphs {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// buildFunc builds the artifact for key on g, the graph currently
// registered under key.Graph, reporting engine progress to the build's
// trace. It runs on the detached build goroutine, under the build's own
// context. The three production builders (artifactKinds) are plain functions
// of their arguments, so a request that hits the cache allocates no closure
// for the build it does not need.
type buildFunc func(ctx context.Context, s *Server, key Key, g *graph.Graph, tr *buildTrace) (artifact, error)

// get returns the cached artifact for key, building it with build on
// first use. Exactly one build runs per key however many requests race;
// the rest join as waiters and block until it completes or their own ctx
// is cancelled. A waiter that leaves releases only itself (its worker slot
// frees immediately); the cache cancels the build when the LAST waiter
// leaves, and never caches a failed one.
//
// rq is the request's record, nil for direct API callers (tests, the
// daemon's bootstrap): get notes the key and the cache outcome on it for
// the request log, and — because a request that has to wait holds a
// fast-lane slot and is about to block for seconds — PARKS the slot for the
// duration of the wait and re-acquires it before touching the value, so
// warm traffic keeps flowing through the fast lane however many requests
// are camped on cold builds, even at Workers=1.
func (s *Server) get(ctx context.Context, rq *request, key Key, build buildFunc) (artifact, error) {
	if rq != nil {
		rq.key = key
	}
	// Completed entries — the steady state of the query workload — only
	// take the cache's read lock, and return before the closures below are
	// even allocated.
	e, ok := s.cache.lookup(key)
	how := cacheHit
	if !ok {
		var err error
		e, how, err = s.cache.acquire(key,
			func() (*buildTrace, error) { return s.startBuild(key) },
			func(bctx context.Context, e *entry) { s.runBuild(bctx, key, e, build) })
		if err != nil {
			return artifact{}, err
		}
	}
	if rq != nil {
		rq.cache = how
	}
	if how == cacheHit {
		s.met.hits.Add(1)
		return e.val, nil
	}
	if rq != nil {
		rq.park()
	}
	if err := s.cache.wait(ctx, key, e); err != nil {
		return artifact{}, err // client gone: the slot stays parked
	}
	if rq != nil {
		if err := rq.unpark(ctx); err != nil {
			// Client gone while re-entering the fast lane: the slot stays
			// unheld, so the deferred release up the stack no-ops.
			return artifact{}, err
		}
	}
	if e.err != nil {
		return artifact{}, e.err
	}
	if how == cacheJoin {
		s.met.hits.Add(1) // a join counts as a hit, matching the pre-detached accounting
	}
	return e.val, nil
}

// startBuild gates a new build, under the cache lock and only once the
// cache has a slot for it: the key's circuit breaker first (a poisoned key
// answers a fast 503 without touching the slow lane), then slow-lane
// admission — past the pending-build bound the build is shed with an
// honest Retry-After instead of joining a queue the client would time out
// of anyway. Joins on in-flight builds never reach it: they add no work.
// (breaker.mu and traceMu nest inside the cache lock here; neither ever
// takes it, so the order cannot invert.)
func (s *Server) startBuild(key Key) (*buildTrace, error) {
	probe, err := s.breaker.allow(key, time.Now())
	if err != nil {
		s.met.breakerRejected.Inc()
		return nil, err
	}
	if probe {
		s.met.breakerProbes.Inc()
	}
	if ahead, ok := s.slow.admit(); !ok {
		// A granted probe that never became a build must not jam the
		// breaker half-open forever.
		s.breaker.cancelled(key)
		return nil, &ShedError{Lane: laneSlow, RetryAfter: s.buildRetryAfter(key.Kind, ahead)}
	}
	return s.startTrace(key), nil
}

// runBuild executes one detached build and hands how it ended to
// finishBuild.
func (s *Server) runBuild(ctx context.Context, key Key, e *entry, build buildFunc) {
	s.met.misses.Add(1)

	// Take a build slot before touching the engines, so at most Workers
	// builds execute concurrently however many keys are minted. A build
	// cancelled while queued never runs at all. Every admitted build leaves
	// the slow lane — here or at release below — before the cache wakes its
	// waiters: one that starts the next cold build must not be shed against
	// this one.
	if err := s.slow.wait(ctx); err != nil {
		s.finishBuild(key, e, false, artifact{}, err)
		return
	}
	e.trace.markRunning()
	// Config.BuildTimeout bounds the RUNNING phase only: the clock starts
	// at slot acquisition, never while the build is queued for the pool,
	// so pool contention cannot spend a build's deadline for it.
	runCtx, cancelRun := ctx, context.CancelFunc(func() {})
	if s.cfg.BuildTimeout > 0 {
		runCtx, cancelRun = context.WithTimeout(ctx, s.cfg.BuildTimeout)
	}
	defer cancelRun()
	start := time.Now()
	panicked := false
	val, err := func() (val artifact, err error) {
		// On the old request-goroutine builds, net/http's per-connection
		// recover contained a panicking build to one failed request; a
		// detached goroutine has no such net, so restore the containment
		// here — the panic becomes a failed (retryable) build, not a
		// daemon crash. The fault injector runs inside the same net, so an
		// injected panic exercises exactly this containment.
		defer func() {
			if r := recover(); r != nil {
				panicked = true
				val, err = artifact{}, fmt.Errorf("serve: build %v panicked: %v", key, r)
			}
		}()
		if fi := s.cfg.FaultInjector; fi != nil {
			if ferr := fi.BuildStarted(runCtx, key); ferr != nil {
				return artifact{}, ferr
			}
		}
		// Fetch the graph inside the build: a RegisterGraph swap between
		// key resolution and here must not bake a stale topology into the
		// cache.
		g, err := s.Graph(key.Graph)
		if err != nil {
			return artifact{}, err
		}
		return build(runCtx, s, key, g, e.trace)
	}()
	s.met.builds.Inc()
	s.met.buildLatency.With(key.Kind).Observe(time.Since(start).Seconds())
	s.slow.release()
	if err != nil && !panicked && errors.Is(runCtx.Err(), context.DeadlineExceeded) && ctx.Err() == nil {
		// The server-side build deadline fired — distinguishable from a
		// waiter cancellation because the outer (waiter-driven) context is
		// still live. Normalize the error so classify reads DeadlineExceeded
		// (504, a failure) however the engines dressed the cancellation up.
		err = fmt.Errorf("serve: build %v exceeded build timeout %s: %w",
			key, s.cfg.BuildTimeout, context.DeadlineExceeded)
	}
	s.finishBuild(key, e, panicked, val, err)
}

// finishBuild settles a build that ended with err (by a contained panic,
// if panicked): the breaker and the trace first — what the ending means is
// classify's row for err — then the outcome is published to the cache.
func (s *Server) finishBuild(key Key, e *entry, panicked bool, val artifact, err error) {
	// Stamp the terminal trace state before publishing, so a waiter that
	// wakes on ready and immediately scrapes /builds sees the final state.
	c := classify(err)
	if panicked {
		c.state = BuildPanicked
	}
	e.trace.finish(c.state, err)
	switch c.state {
	case BuildCancelled:
		s.met.cancelled.Add(1)
	case BuildTimedOut:
		s.met.timedOut.Inc()
	}

	// Feed the breaker: a good build closes the key's breaker, a neutral
	// ending only releases a pending probe, a failure counts toward
	// tripping it.
	switch c.verdict {
	case success:
		s.breaker.success(key)
	case neutral:
		s.breaker.cancelled(key)
	case failure:
		if s.breaker.failure(key, time.Now()) {
			s.met.breakerTrips.Inc()
		}
	}

	s.endTrace(e.trace)
	s.cache.finish(key, e, val, err)
}

// Shutdown cancels every in-flight build, rejects builds requested from
// then on with ErrShuttingDown, and waits for the detached build
// goroutines to drain (or ctx to expire). Completed artifacts remain
// queryable throughout, so it is safe to call before draining the HTTP
// listener — late requests either hit the cache or fail fast instead of
// starting builds nobody will wait out.
func (s *Server) Shutdown(ctx context.Context) error { return s.cache.shutdown(ctx) }

// artifactKinds is what distinguishes the artifact families: the paper's
// default τ for a graph of n nodes, and the builder.
var artifactKinds = map[string]struct {
	paperTau func(n int) int
	build    buildFunc
}{
	"oracle":   {core.DefaultOracleTau, buildOracle},
	"diameter": {core.DefaultDiameterTau, buildDiameter},
	"kcenter":  {nil, buildKCenter}, // keyed on k, which is never defaulted
}

// key mints the cache key of kind for p on the resolved graph g.
// Non-positive tau falls back to Config.DefaultTau, then to the family's
// paper default for the graph's size. Every family keys on the resolved
// values, so a parameter-less request and an explicit request for the
// defaults share one cache slot, /builds reports the parameters the build
// actually used, and a persisted snapshot Meta round-trips to the key
// parameter-less requests hit after a warm restart.
func (s *Server) key(kind string, g *graph.Graph, p buildParams) Key {
	if p.tau <= 0 {
		p.tau = s.cfg.DefaultTau
	}
	if p.tau <= 0 {
		p.tau = artifactKinds[kind].paperTau(g.NumNodes())
	}
	return Key{Graph: p.graph, Kind: kind, Tau: p.tau, Seed: p.seed, Algorithm: p.algo}
}

// resolve maps a graph name and build parameters to kind's cache key, for
// every caller that has not resolved the graph itself: the direct API,
// whose algorithm name is validated here, and the handlers of the cold
// endpoints (the oracle pipeline needs the graph for its range check and
// mints its key from the parsed parameters, queryPairs).
func (s *Server) resolve(kind string, p buildParams) (Key, error) {
	var err error
	if p.algo, err = parseAlgorithm(p.algo); err != nil {
		return Key{}, err
	}
	g, err := s.Graph(p.graph)
	if err != nil {
		return Key{}, err
	}
	return s.key(kind, g, p), nil
}

// artifact returns kind's artifact for p, building and caching it on first
// use. rq is nil for the direct API.
func (s *Server) artifact(ctx context.Context, rq *request, kind string, p buildParams) (artifact, error) {
	key, err := s.resolve(kind, p)
	if err != nil {
		return artifact{}, err
	}
	return s.get(ctx, rq, key, artifactKinds[kind].build)
}

// Oracle returns the distance oracle for the key's graph and build
// parameters, building and caching it on first use. tau <= 0 selects
// Config.DefaultTau, then the paper default.
func (s *Server) Oracle(ctx context.Context, name string, tau int, seed uint64, algorithm string) (*core.Oracle, error) {
	a, err := s.artifact(ctx, nil, "oracle", buildParams{name, tau, seed, algorithm})
	return a.oracle, err
}

func buildOracle(ctx context.Context, s *Server, key Key, g *graph.Graph, tr *buildTrace) (artifact, error) {
	o, err := core.BuildOracle(ctx, g, key.Tau, key.Algorithm == "cluster2", s.buildOptions(tr, key.Seed))
	if err != nil {
		return artifact{}, err
	}
	return artifact{oracle: o}, nil
}

// Diameter returns the cached diameter bounds for the key's graph. tau is
// resolved (Config.DefaultTau, then core.DefaultDiameterTau) before the
// key is minted, exactly like the oracle path.
func (s *Server) Diameter(ctx context.Context, name string, tau int, seed uint64, algorithm string) (*core.DiameterResult, error) {
	a, err := s.artifact(ctx, nil, "diameter", buildParams{name, tau, seed, algorithm})
	return a.diameter, err
}

func buildDiameter(ctx context.Context, s *Server, key Key, g *graph.Graph, tr *buildTrace) (artifact, error) {
	res, err := core.ApproxDiameter(ctx, g, core.DiameterOptions{
		Options:     s.buildOptions(tr, key.Seed),
		Tau:         key.Tau,
		UseCluster2: key.Algorithm == "cluster2",
	})
	if err != nil {
		return artifact{}, err
	}
	return artifact{diameter: res}, nil
}

// KCenter returns the cached k-center solution for the key's graph.
func (s *Server) KCenter(ctx context.Context, name string, k int, seed uint64) (*core.KCenterResult, error) {
	if k < 1 {
		return nil, errors.New("serve: k must be >= 1")
	}
	a, err := s.artifact(ctx, nil, "kcenter", buildParams{name, k, seed, "cluster"})
	return a.kcenter, err
}

func buildKCenter(ctx context.Context, s *Server, key Key, g *graph.Graph, tr *buildTrace) (artifact, error) {
	res, err := core.KCenter(ctx, g, key.Tau, s.buildOptions(tr, key.Seed))
	if err != nil {
		return artifact{}, err
	}
	return artifact{kcenter: res}, nil
}

// CachedOracleArtifact assembles the persistable artifact for the resolved
// oracle key only if that oracle is already cached and completed; ok is
// false otherwise. The daemon's shutdown path uses it to persist a lazily
// built oracle without triggering a build while draining.
func (s *Server) CachedOracleArtifact(name string, tau int, seed uint64, algorithm string) (art *snapshot.Artifact, ok bool, err error) {
	key, err := s.resolve("oracle", buildParams{name, tau, seed, algorithm})
	if err != nil {
		return nil, false, err
	}
	e, found := s.cache.lookup(key)
	if !found {
		return nil, false, nil
	}
	return oracleSnapshot(key, e.val.oracle), true, nil
}

// oracleSnapshot assembles the persistable snapshot for a resolved oracle
// key — the one shape every persistence path writes, so a persisted Meta
// always round-trips to the cache slot InstallSnapshot re-seeds.
func oracleSnapshot(key Key, o *core.Oracle) *snapshot.Artifact {
	return &snapshot.Artifact{
		Meta: snapshot.Meta{
			GraphName: key.Graph,
			Tau:       key.Tau,
			Seed:      key.Seed,
			Algorithm: key.Algorithm,
		},
		Graph:  o.Clustering().G,
		Oracle: o,
	}
}

// SnapshotArtifact assembles the persistable artifact for an oracle key,
// building the oracle if it is not cached yet. The daemon uses this to
// write its snapshot after the first build; Meta carries the resolved key
// so InstallSnapshot re-seeds exactly the slot future requests look up.
func (s *Server) SnapshotArtifact(ctx context.Context, name string, tau int, seed uint64, algorithm string) (*snapshot.Artifact, error) {
	key, err := s.resolve("oracle", buildParams{name, tau, seed, algorithm})
	if err != nil {
		return nil, err
	}
	a, err := s.get(ctx, nil, key, buildOracle)
	if err != nil {
		return nil, err
	}
	return oracleSnapshot(key, a.oracle), nil
}

// buildOptions assembles the core.Options for the build traced by tr: the
// configured parallelism plus the observer that feeds the server-wide
// engine counters and the build's trace.
func (s *Server) buildOptions(tr *buildTrace, seed uint64) core.Options {
	return core.Options{
		Seed:     seed,
		Workers:  s.cfg.BuildWorkers,
		Observer: s.buildObserver(tr),
	}
}

// parseAlgorithm validates a decomposition name and returns its canonical
// form ("cluster" when empty).
func parseAlgorithm(algorithm string) (string, error) {
	switch algorithm {
	case "", "cluster":
		return "cluster", nil
	case "cluster2":
		return "cluster2", nil
	}
	return "", fmt.Errorf("serve: unknown algorithm %q (want cluster or cluster2)", algorithm)
}
