package serve

import "repro/internal/obs"

// metrics is the server's instrument set, backed by the obs registry that
// /metrics renders. The hot paths (queries, observer callbacks) touch only
// lock-free instruments. Together with the build traces /builds serves
// (trace.go), this registry is the daemon's whole inside view: every number
// is exported once, under one name.
type metrics struct {
	reg *obs.Registry

	// HTTP surface (middleware.go).
	httpRequests *obs.CounterVec   // {path, code}
	httpLatency  *obs.HistogramVec // {path}
	httpInFlight *obs.Gauge        // requests between middleware entry and exit
	errors       *obs.Counter      // responses with status >= 400
	rejected     *obs.Counter      // requests cancelled while queued for a worker slot
	queryLatency *obs.Histogram    // point-query handling time (distance + cluster-of)

	// Batch query path (batch.go). batchPairs counts answered pairs —
	// the batch counterpart of the point-query count, so /metrics can
	// distinguish one 10k-pair request from 10k point queries — and
	// batchSize is the per-request batch-size distribution.
	batchPairs *obs.Counter
	batchSize  *obs.Histogram

	// Overload surface (admission.go, breaker.go): load shedding by lane,
	// client-abandoned requests, and the per-key circuit breaker.
	shed            *obs.CounterVec // {lane}, counted by the lanes themselves
	clientGone      *obs.Counter
	breakerTrips    *obs.Counter
	breakerRejected *obs.Counter
	breakerProbes   *obs.Counter

	// Artifact cache and builds.
	hits         *obs.Counter
	misses       *obs.Counter
	evictions    *obs.Counter
	installs     *obs.Counter
	builds       *obs.Counter
	cancelled    *obs.Counter
	timedOut     *obs.Counter
	buildLatency *obs.HistogramVec // {kind}

	// Engine progress totals, fed by the build observers: the paper's cost
	// units (rounds, arcs-scanned messages, relaxations, buckets) as live
	// server-wide counters.
	engRounds      *obs.Counter
	engPullRounds  *obs.Counter
	engArcs        *obs.Counter
	engRelaxations *obs.Counter
	engBuckets     *obs.Counter
}

func newMetrics() *metrics {
	reg := obs.NewRegistry()
	m := &metrics{reg: reg}
	m.httpRequests = reg.CounterVec("reprod_http_requests_total",
		"HTTP requests served, by endpoint path and status code.", "path", "code")
	m.httpLatency = reg.HistogramVec("reprod_http_request_duration_seconds",
		"End-to-end request latency by endpoint, including worker-slot queueing and any artifact build the request waited out.",
		obs.DefBuckets, "path")
	m.httpInFlight = reg.Gauge("reprod_http_in_flight_requests",
		"Requests currently being handled.")
	m.errors = reg.Counter("reprod_http_errors_total",
		"Requests answered with status >= 400.")
	m.rejected = reg.Counter("reprod_requests_rejected_total",
		"Requests whose client disconnected while queued for a worker slot.")
	m.queryLatency = reg.Histogram("reprod_point_query_duration_seconds",
		"Handling time of point queries (distance, cluster-of) against a completed artifact.",
		obs.DefBuckets)
	m.shed = reg.CounterVec("reprod_requests_shed_total",
		"Requests load-shed with 503 + Retry-After because an admission lane's bounded queue was full, by lane (fast, slow).", "lane")
	m.clientGone = reg.Counter("reprod_requests_client_gone_total",
		"Requests whose client disconnected before the response was written.")
	m.breakerTrips = reg.Counter("reprod_breaker_trips_total",
		"Circuit-breaker openings, including re-opens after a failed half-open probe.")
	m.breakerRejected = reg.Counter("reprod_breaker_rejected_total",
		"Build requests answered a fast 503 because their key's circuit breaker was open.")
	m.breakerProbes = reg.Counter("reprod_breaker_probes_total",
		"Half-open probe builds admitted after a breaker cooldown expired.")
	m.batchPairs = reg.Counter("reprod_batch_pairs_total",
		"Distance pairs answered by /distance-batch across all encodings.")
	m.batchSize = reg.Histogram("reprod_batch_size_pairs",
		"Pairs per /distance-batch request.",
		[]float64{1, 4, 16, 64, 256, 1024, 4096, 16384, 65536})
	m.hits = reg.Counter("reprod_artifact_cache_hits_total",
		"Artifact cache hits, including joins on in-flight builds.")
	m.misses = reg.Counter("reprod_artifact_cache_misses_total",
		"Artifact cache misses; each one starts a detached build.")
	m.evictions = reg.Counter("reprod_artifact_cache_evictions_total",
		"Completed artifacts dropped by the LRU cache bound.")
	m.installs = reg.Counter("reprod_snapshot_installs_total",
		"Artifacts installed from persisted snapshots instead of builds.")
	m.builds = reg.Counter("reprod_builds_total",
		"Detached artifact builds that acquired a build-pool slot and ran.")
	m.cancelled = reg.Counter("reprod_builds_cancelled_total",
		"Builds cancelled mid-flight because their last waiter left or the server drained.")
	m.timedOut = reg.Counter("reprod_builds_timed_out_total",
		"Builds killed by the server-side build deadline (Config.BuildTimeout); their waiters answer 504.")
	m.buildLatency = reg.HistogramVec("reprod_build_duration_seconds",
		"Wall-clock build duration by artifact kind (oracle, diameter, kcenter).",
		obs.BuildBuckets, "kind")
	m.engRounds = reg.Counter("reprod_engine_bsp_rounds_total",
		"BSP supersteps executed by artifact builds.")
	m.engPullRounds = reg.Counter("reprod_engine_pull_rounds_total",
		"BSP supersteps that ran bottom-up (pull direction).")
	m.engArcs = reg.Counter("reprod_engine_arcs_scanned_total",
		"Arcs scanned by artifact builds, the paper's message-volume unit.")
	m.engRelaxations = reg.Counter("reprod_engine_relaxations_total",
		"Weighted edge relaxations offered by artifact builds: the oracle's quotient APSP (a diameter build's quotient iFUB is not observed).")
	m.engBuckets = reg.Counter("reprod_engine_buckets_total",
		"Distinct distances settled by artifact builds' searches: the oracle's quotient APSP core searches (a diameter build's quotient iFUB is not observed).")
	return m
}

// registerServerGauges registers the scrape-time gauges that read state
// living on the server itself (cache occupancy, the two admission lanes) —
// exposed as GaugeFuncs so the numbers are never double-booked. Called once
// from New, after the lanes and maps exist.
func (s *Server) registerServerGauges() {
	reg := s.met.reg
	reg.GaugeFunc("reprod_artifact_cache_entries",
		"Artifact cache slots in use, completed and in-flight.", func() float64 {
			return float64(s.cache.len())
		})
	reg.GaugeFunc("reprod_artifact_cache_capacity",
		"Configured artifact cache bound (Config.MaxArtifacts).", func() float64 {
			return float64(s.cfg.MaxArtifacts)
		})
	reg.GaugeFunc("reprod_request_slots_in_use",
		"Fast-lane slots currently held by requests (a request parked on a build holds none).", func() float64 {
			return float64(len(s.fast.slots))
		})
	reg.GaugeFunc("reprod_builds_in_flight",
		"Builds pending in the slow lane: admitted and not yet finished (queued plus running).", func() float64 {
			return float64(s.slow.pending.Load())
		})
	reg.GaugeFunc("reprod_build_pool_occupancy",
		"Slow-lane slots currently held by running builds.", func() float64 {
			return float64(len(s.slow.slots))
		})
	reg.GaugeFunc("reprod_build_pool_size",
		"Slow-lane width, the configured build-pool bound (Config.Workers).", func() float64 {
			return float64(cap(s.slow.slots))
		})
	reg.GaugeFunc("reprod_graphs",
		"Graphs registered and queryable.", func() float64 {
			return float64(len(s.GraphNames()))
		})
	reg.GaugeFunc("reprod_fast_lane_queue_depth",
		"Requests admitted to the fast lane and waiting for a slot.", func() float64 {
			return float64(s.fast.queued())
		})
	reg.GaugeFunc("reprod_breaker_open_keys",
		"Artifact keys whose circuit breaker is currently open or half-open.", func() float64 {
			return float64(s.breaker.openKeys())
		})
}
