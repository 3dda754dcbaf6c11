package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
)

// Handler returns the HTTP surface of the server:
//
//	GET  /distance?graph=G&u=U&v=V[&tau=T][&seed=S][&algo=cluster|cluster2]
//	POST /distance-batch?graph=G[&tau=T][&seed=S][&algo=...]  (body: pairs)
//	GET  /cluster-of?graph=G&u=U[&tau=T][&seed=S][&algo=...]
//	GET  /diameter?graph=G[&tau=T][&seed=S][&algo=...]
//	GET  /mr-diameter?graph=G[&tau=T][&seed=S]
//	GET  /kcenter?graph=G&k=K[&seed=S]
//	GET  /stats
//	GET  /builds
//	GET  /metrics
//	GET  /healthz
//
// All endpoints answer JSON except /metrics, which answers the Prometheus
// text exposition format, and /distance-batch, which answers in its
// request's encoding (JSON, the dense binary frame, or streamed NDJSON —
// see batch.go). Missing or malformed parameters are 400, unknown graphs
// 404; load-shed, breaker-rejected, and cancelled requests are 503 (shed
// and breaker responses carry a Retry-After header), and a build that
// outruns the server-side build timeout is 504 — README's "Overload &
// failure semantics" section has the full table. Every endpoint runs
// under the
// instrumentation middleware: responses carry an X-Request-ID header, and
// each request lands in the per-path request counter and latency
// histogram /metrics exports.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	handle := func(path string, h http.HandlerFunc) {
		mux.Handle(path, s.instrument(path, h))
	}
	handle("/distance", s.wrap(s.handleDistance))
	handle("/distance-batch", s.wrapRaw(s.handleDistanceBatch))
	handle("/cluster-of", s.wrap(s.handleClusterOf))
	handle("/diameter", s.wrap(s.handleDiameter))
	handle("/mr-diameter", s.wrap(s.handleMRDiameter))
	handle("/kcenter", s.wrap(s.handleKCenter))
	handle("/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Stats())
	})
	handle("/builds", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.BuildTraces())
	})
	handle("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", obs.ContentType)
		_ = s.met.reg.WritePrometheus(w)
	})
	handle("/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"ok": true, "graphs": s.GraphNames()})
	})
	return mux
}

// httpError carries a status code through the handler plumbing.
type httpError struct {
	status int
	msg    string
}

func (e *httpError) Error() string { return e.msg }

func badRequest(format string, args ...any) error {
	return &httpError{http.StatusBadRequest, fmt.Sprintf(format, args...)}
}

// errStatus maps a handler error to its HTTP status. Deadline expiry —
// a build that outran Config.BuildTimeout — is 504 (the server gave up),
// distinct from the 503 family (the server refused: shed, breaker-open,
// cache full, draining, client-abandoned), so clients can tell "retry
// later" from "this build is too slow".
func errStatus(err error) int {
	var (
		he   *httpError
		shed *ShedError
		open *BreakerOpenError
	)
	switch {
	case errors.As(err, &he):
		return he.status
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.As(err, &shed), errors.As(err, &open),
		errors.Is(err, context.Canceled),
		errors.Is(err, ErrCacheFull), errors.Is(err, ErrShuttingDown):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrUnknownGraph):
		return http.StatusNotFound
	}
	return http.StatusInternalServerError
}

// wrap is the shared request pipeline of the JSON endpoints: take a
// bounded worker slot (honouring client disconnect while queued), parse
// the artifact-selecting parameters, run the handler, and map errors to
// JSON error bodies. Request counting and latency live in the instrument
// middleware wrapped around it.
func (s *Server) wrap(h func(r *http.Request, p buildParams) (any, error)) http.HandlerFunc {
	return s.wrapRaw(func(w http.ResponseWriter, r *http.Request) error {
		p, err := s.parseBuildParams(r)
		if err != nil {
			return err
		}
		v, err := h(r, p)
		if err != nil {
			return err
		}
		writeJSON(w, http.StatusOK, v)
		return nil
	})
}

// wrapRaw is wrap for handlers that encode (or stream) their own success
// responses — the batch path, whose pooled buffers bypass the generic
// JSON encoder. The handler contract: return an error only before writing
// anything, so the mapper can still produce a clean JSON error body.
//
// Admission runs through a per-request laneSlot rather than a bare
// acquire/release pair: the slot rides the request context (requestInfo)
// so the artifact cache can park it while the request blocks on a cold
// build, and its release is idempotent, so the deferred release frees
// exactly what is held whether the request completed, parked and
// resumed, or died parked.
func (s *Server) wrapRaw(h func(w http.ResponseWriter, r *http.Request) error) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		slot := &laneSlot{l: s.fast}
		if err := slot.acquire(r.Context()); err != nil {
			var shed *ShedError
			if errors.As(err, &shed) {
				s.met.shed.With(shed.Lane).Inc()
			} else {
				s.met.rejected.Add(1)
			}
			s.writeErr(w, r, err)
			return
		}
		if ri := requestInfoFrom(r.Context()); ri != nil {
			ri.slot = slot
		}
		s.met.inFlight.Add(1)
		defer func() {
			s.met.inFlight.Add(-1)
			slot.release()
		}()
		if err := h(w, r); err != nil {
			s.writeErr(w, r, err)
		}
	}
}

// writeErr maps a handler error to its JSON body, attaching the
// Retry-After header any shed-like rejection (lane shed, open breaker)
// carries and counting client-abandoned requests — cancellations whose
// cause was the request's own context, not a server-side refusal — into
// reprod_requests_client_gone_total, so shed-vs-abandoned traffic stays
// distinguishable in /metrics.
func (s *Server) writeErr(w http.ResponseWriter, r *http.Request, err error) {
	if ra := retryAfterOf(err); ra > 0 {
		w.Header().Set("Retry-After", retryAfterSeconds(ra))
	}
	if errors.Is(err, context.Canceled) && r.Context().Err() != nil {
		s.met.clientGone.Inc()
	}
	writeJSON(w, errStatus(err), map[string]string{"error": err.Error()})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

// --- request parameter parsing ---

type buildParams struct {
	graph string
	tau   int
	seed  uint64
	algo  string
}

// parseBuildParams resolves the artifact-selecting parameters, falling
// back to the server's configured defaults for any the client omitted, so
// parameter-less clients share the artifact the daemon prebuilt at
// startup.
func (s *Server) parseBuildParams(r *http.Request) (buildParams, error) {
	q := r.URL.Query()
	p := buildParams{graph: q.Get("graph"), algo: q.Get("algo"), seed: s.cfg.DefaultSeed}
	if p.graph == "" {
		return p, badRequest("missing graph parameter")
	}
	if p.algo == "" {
		p.algo = s.cfg.DefaultAlgorithm
	}
	if _, err := parseAlgorithm(p.algo); err != nil {
		return p, badRequest("%v", err)
	}
	if v := q.Get("tau"); v != "" {
		tau, err := strconv.Atoi(v)
		if err != nil || tau < 0 {
			return p, badRequest("bad tau %q", v)
		}
		p.tau = tau
	}
	if v := q.Get("seed"); v != "" {
		seed, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return p, badRequest("bad seed %q", v)
		}
		p.seed = seed
	}
	return p, nil
}

// parseNodeID is the syntactic half of node validation, run before any
// artifact build so malformed requests fail fast without costing (or
// cache-churning) a multi-second decomposition.
func parseNodeID(r *http.Request, name string) (graph.NodeID, error) {
	v := r.URL.Query().Get(name)
	if v == "" {
		return 0, badRequest("missing %s parameter", name)
	}
	id, err := strconv.ParseInt(v, 10, 32)
	if err != nil || id < 0 {
		return 0, badRequest("bad node id %s=%q", name, v)
	}
	return graph.NodeID(id), nil
}

// oracleFor is the shared preamble of the oracle-backed endpoints
// (/distance, /cluster-of, /distance-batch) — the semantic half of node
// validation. Ids are range-checked twice: first against the registered
// graph, BEFORE the artifact lookup, so an out-of-range id is a cheap 400
// instead of the trigger for (and a cache slot spent on) a multi-second
// decomposition; then against the oracle's own graph, because
// RegisterGraph may swap the topology between the two. All ids are known
// non-negative after parsing, so each check is one comparison against the
// maximum; only the failure path scans to name the offending pair.
func (s *Server) oracleFor(r *http.Request, p buildParams, pairs [][2]graph.NodeID, maxID graph.NodeID) (*core.Oracle, error) {
	g, err := s.Graph(p.graph)
	if err != nil {
		return nil, err
	}
	if err := checkBatchRange(pairs, maxID, g); err != nil {
		return nil, err
	}
	o, err := s.Oracle(r.Context(), p.graph, p.tau, p.seed, p.algo)
	if err != nil {
		return nil, err
	}
	if err := checkBatchRange(pairs, maxID, o.Clustering().G); err != nil {
		return nil, err
	}
	return o, nil
}

// --- endpoint handlers ---

// DistanceResponse answers /distance. Distance is the oracle upper bound
// (exact within a cluster's star, O(log³n)-approximate across clusters);
// Lower is the certified hop lower bound from the quotient graph.
// Reachable is false (and the bounds -1) for nodes in different components.
type DistanceResponse struct {
	Graph     string `json:"graph"`
	U         int32  `json:"u"`
	V         int32  `json:"v"`
	Reachable bool   `json:"reachable"`
	Distance  int64  `json:"distance"`
	Lower     int64  `json:"lower"`
	ClusterU  int32  `json:"cluster_u"`
	ClusterV  int32  `json:"cluster_v"`
}

func (s *Server) handleDistance(r *http.Request, p buildParams) (any, error) {
	u, err := parseNodeID(r, "u")
	if err != nil {
		return nil, err
	}
	v, err := parseNodeID(r, "v")
	if err != nil {
		return nil, err
	}
	o, err := s.oracleFor(r, p, [][2]graph.NodeID{{u, v}}, max(u, v))
	if err != nil {
		return nil, err
	}
	start := time.Now()
	d := o.Query(u, v)
	lower := o.LowerQuery(u, v)
	s.met.queryLatency.Observe(time.Since(start).Seconds())
	resp := DistanceResponse{
		Graph:     p.graph,
		U:         u,
		V:         v,
		Reachable: d != graph.InfDist,
		Distance:  d,
		Lower:     lower,
		ClusterU:  o.Clustering().Owner[u],
		ClusterV:  o.Clustering().Owner[v],
	}
	if !resp.Reachable {
		resp.Distance, resp.Lower = -1, -1
	}
	return resp, nil
}

// ClusterOfResponse answers /cluster-of: the decomposition coordinates of
// one node (cluster index, its center, the growth distance to it, and the
// cluster radius).
type ClusterOfResponse struct {
	Graph         string `json:"graph"`
	U             int32  `json:"u"`
	Cluster       int32  `json:"cluster"`
	Center        int32  `json:"center"`
	DistToCenter  int32  `json:"dist_to_center"`
	ClusterRadius int32  `json:"cluster_radius"`
	NumClusters   int    `json:"num_clusters"`
}

func (s *Server) handleClusterOf(r *http.Request, p buildParams) (any, error) {
	u, err := parseNodeID(r, "u")
	if err != nil {
		return nil, err
	}
	o, err := s.oracleFor(r, p, [][2]graph.NodeID{{u, u}}, u)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	cl := o.Clustering()
	c := cl.Owner[u]
	resp := ClusterOfResponse{
		Graph:         p.graph,
		U:             u,
		Cluster:       c,
		Center:        cl.Centers[c],
		DistToCenter:  cl.Dist[u],
		ClusterRadius: cl.Radii[c],
		NumClusters:   cl.NumClusters(),
	}
	s.met.queryLatency.Observe(time.Since(start).Seconds())
	return resp, nil
}

// DiameterResponse answers /diameter with the certified bounds of
// Section 4: Lower = ∆C ≤ diameter ≤ Upper = 2R + ∆′C.
type DiameterResponse struct {
	Graph       string `json:"graph"`
	Lower       int64  `json:"lower"`
	Upper       int64  `json:"upper"`
	RMax        int32  `json:"r_max"`
	NumClusters int    `json:"num_clusters"`
	Exact       bool   `json:"quotient_exact"`
}

func (s *Server) handleDiameter(r *http.Request, p buildParams) (any, error) {
	res, err := s.Diameter(r.Context(), p.graph, p.tau, p.seed, p.algo)
	if err != nil {
		return nil, err
	}
	return DiameterResponse{
		Graph:       p.graph,
		Lower:       res.DeltaC,
		Upper:       res.Upper,
		RMax:        res.RMax,
		NumClusters: res.Clustering.NumClusters(),
		Exact:       res.Exact,
	}, nil
}

// MRDiameterResponse answers /mr-diameter: the Section 5 diameter path
// executed on the sharded MR runtime, with the round accounting the model
// charges for it. Upper = 2R + quotient_diameter is the certified bound.
type MRDiameterResponse struct {
	Graph string `json:"graph"`
	*MRDiameterResult
}

func (s *Server) handleMRDiameter(r *http.Request, p buildParams) (any, error) {
	// The MR pipeline only implements CLUSTER; an explicit algo=cluster2
	// must be rejected rather than silently answered with CLUSTER results.
	if a := r.URL.Query().Get("algo"); a != "" && a != "cluster" {
		return nil, badRequest("mr-diameter runs the CLUSTER pipeline only (got algo=%q)", a)
	}
	res, err := s.MRDiameter(r.Context(), p.graph, p.tau, p.seed)
	if err != nil {
		return nil, err
	}
	return MRDiameterResponse{Graph: p.graph, MRDiameterResult: res}, nil
}

// KCenterResponse answers /kcenter: the selected centers and the exact
// radius of the solution (max distance of any node to its nearest center).
type KCenterResponse struct {
	Graph   string  `json:"graph"`
	K       int     `json:"k"`
	Centers []int32 `json:"centers"`
	Radius  int32   `json:"radius"`
	Merged  bool    `json:"merged"`
}

func (s *Server) handleKCenter(r *http.Request, p buildParams) (any, error) {
	kStr := r.URL.Query().Get("k")
	if kStr == "" {
		return nil, badRequest("missing k parameter")
	}
	k, err := strconv.Atoi(kStr)
	if err != nil || k < 1 {
		return nil, badRequest("bad k %q", kStr)
	}
	res, err := s.KCenter(r.Context(), p.graph, k, p.seed)
	if err != nil {
		return nil, err
	}
	return KCenterResponse{
		Graph:   p.graph,
		K:       k,
		Centers: res.Centers,
		Radius:  res.Radius,
		Merged:  res.Merged,
	}, nil
}
