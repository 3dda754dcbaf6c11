package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"
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
//	GET  /kcenter?graph=G&k=K[&seed=S]
//	GET  /builds
//	GET  /metrics
//	GET  /healthz
//
// All endpoints answer JSON except /metrics, which answers the Prometheus
// text exposition format, and /distance-batch, which answers in its
// request's encoding (JSON or the dense binary frame — see batch.go).
// Missing or malformed parameters are 400, unknown graphs 404; load-shed,
// breaker-rejected, and cancelled requests are 503 (shed and breaker
// responses carry a Retry-After header), and a build that outruns the
// server-side build timeout is 504 — README's "Overload & failure
// semantics" section has the full table. Every endpoint runs under the
// instrumentation middleware: responses carry an X-Request-ID header, and
// each request lands in the per-path request counter and latency
// histogram /metrics exports.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	handle := func(path string, h func(*request, *http.Request)) {
		mux.Handle(path, s.instrument(path, h))
	}
	handle("/distance", s.endpoint("", s.queryPairs(decodeDistance, answerDistance)))
	handle("/distance-batch", s.endpoint(http.MethodPost, s.queryPairs(decodeBatch, answerBatch)))
	handle("/cluster-of", s.endpoint("", s.queryPairs(decodeClusterOf, answerClusterOf)))
	handle("/diameter", s.endpoint("", s.handleDiameter))
	handle("/kcenter", s.endpoint("", s.handleKCenter))
	handle("/builds", func(rq *request, _ *http.Request) {
		writeJSON(rq, http.StatusOK, s.BuildTraces())
	})
	handle("/metrics", func(rq *request, _ *http.Request) {
		rq.Header().Set("Content-Type", obs.ContentType)
		_ = s.met.reg.WritePrometheus(rq)
	})
	handle("/healthz", func(rq *request, _ *http.Request) {
		writeJSON(rq, http.StatusOK, map[string]any{"ok": true, "graphs": s.GraphNames()})
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

// verdict is what the way a build ended tells its key's circuit breaker.
type verdict int

const (
	neutral verdict = iota // nothing about the key's health: cancellations, refusals, the client's own errors
	success                // closes the key's breaker
	failure                // counts toward tripping it
)

// errClass is one row of the error table.
type errClass struct {
	status     int           // HTTP status the error answers with
	retryAfter time.Duration // when positive, the Retry-After header
	verdict    verdict       // breaker verdict of a build that ended with it
	state      string        // terminal trace state of such a build
}

// classify is the one error table: what an error means to the client and
// what a build that ended with it means to its key's breaker — writeErr
// and finishBuild both read it, so the two cannot disagree. Deadline
// expiry — a build that outran Config.BuildTimeout — is 504 (the server
// gave up), distinct from the 503 family (the server refused: shed,
// breaker-open, cache full, draining, client-abandoned), so clients can
// tell "retry later" from "this build is too slow". A rejection no retry
// can turn into a success — a 4xx from the build, core.ErrInfeasible — is
// the client's error and breaker-neutral: tripping on it would only turn
// an honest 400 into a 503 that invites retries.
func classify(err error) errClass {
	var (
		he   *httpError
		shed *ShedError
		open *BreakerOpenError
	)
	switch {
	case err == nil:
		return errClass{http.StatusOK, 0, success, BuildDone}
	case errors.As(err, &he): // every httpError is a 4xx
		return errClass{he.status, 0, neutral, BuildFailed}
	case errors.Is(err, core.ErrInfeasible):
		return errClass{http.StatusBadRequest, 0, neutral, BuildFailed}
	case errors.Is(err, ErrUnknownGraph):
		return errClass{http.StatusNotFound, 0, neutral, BuildFailed}
	case errors.Is(err, context.DeadlineExceeded):
		return errClass{http.StatusGatewayTimeout, 0, failure, BuildTimedOut}
	case errors.Is(err, context.Canceled):
		return errClass{http.StatusServiceUnavailable, 0, neutral, BuildCancelled}
	case errors.As(err, &shed):
		return errClass{http.StatusServiceUnavailable, shed.RetryAfter, neutral, BuildFailed}
	case errors.As(err, &open):
		return errClass{http.StatusServiceUnavailable, open.RetryAfter, neutral, BuildFailed}
	case errors.Is(err, ErrCacheFull), errors.Is(err, ErrShuttingDown):
		return errClass{http.StatusServiceUnavailable, 0, neutral, BuildFailed}
	}
	return errClass{http.StatusInternalServerError, 0, failure, BuildFailed}
}

// endpoint is the one wrapper of the artifact-backed endpoints: admit the
// request to the fast lane (honouring client disconnect while queued),
// check the method when the endpoint names one, parse the query string —
// once, into the record — run the handler, and write what it returns: the
// JSON response value, or the error mapped to a JSON error body. A handler
// that encodes (or streams) its own success response — the batch path,
// whose pooled buffers bypass the generic JSON encoder — returns nil, nil;
// it may return an error only before writing anything, so the mapper can
// still produce a clean body. Request counting and latency live in the
// instrument middleware wrapped around it.
func (s *Server) endpoint(method string, h func(*request, *http.Request) (any, error)) func(*request, *http.Request) {
	run := func(rq *request, r *http.Request) (resp any, err error) {
		if method != "" && r.Method != method {
			return nil, &httpError{http.StatusMethodNotAllowed, strings.TrimPrefix(r.URL.Path, "/") + " requires " + method}
		}
		rq.q = r.URL.Query()
		if rq.p, err = s.parseBuildParams(rq.q); err != nil {
			return nil, err
		}
		return h(rq, r)
	}
	return func(rq *request, r *http.Request) {
		if _, ok := rq.lane.admit(); !ok {
			s.writeErr(rq, r, &ShedError{Lane: laneFast, RetryAfter: time.Second})
			return
		}
		if err := rq.hold(r.Context()); err != nil {
			s.met.rejected.Add(1)
			s.writeErr(rq, r, err)
			return
		}
		defer rq.release()
		if resp, err := run(rq, r); err != nil {
			s.writeErr(rq, r, err)
		} else if resp != nil {
			writeJSON(rq, http.StatusOK, resp)
		}
	}
}

// writeErr maps a handler error to its JSON body through classify,
// attaching the Retry-After header any shed-like rejection (lane shed, open
// breaker) carries and counting client-abandoned requests — cancellations
// whose cause was the request's own context, not a server-side refusal —
// into reprod_requests_client_gone_total, so shed-vs-abandoned traffic
// stays distinguishable in /metrics.
func (s *Server) writeErr(rq *request, r *http.Request, err error) {
	c := classify(err)
	if c.retryAfter > 0 {
		rq.Header().Set("Retry-After", retryAfterSeconds(c.retryAfter))
	}
	if errors.Is(err, context.Canceled) && r.Context().Err() != nil {
		s.met.clientGone.Inc()
	}
	writeJSON(rq, c.status, map[string]string{"error": err.Error()})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

// --- request parameter parsing ---

// buildParams are the artifact-selecting parameters of a request; the
// algorithm is canonical once parseBuildParams or Server.resolve returned
// them.
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
func (s *Server) parseBuildParams(q url.Values) (buildParams, error) {
	p := buildParams{graph: q.Get("graph"), algo: q.Get("algo"), seed: s.cfg.DefaultSeed}
	if p.graph == "" {
		return p, badRequest("missing graph parameter")
	}
	if p.algo == "" {
		p.algo = s.cfg.DefaultAlgorithm
	}
	var err error
	if p.algo, err = parseAlgorithm(p.algo); err != nil {
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
func parseNodeID(q url.Values, name string) (graph.NodeID, error) {
	v := q.Get(name)
	if v == "" {
		return 0, badRequest("missing %s parameter", name)
	}
	id, err := strconv.ParseInt(v, 10, 32)
	if err != nil || id < 0 {
		return 0, badRequest("bad node id %s=%q", name, v)
	}
	return graph.NodeID(id), nil
}

// parseK is /kcenter's own parameter.
func parseK(q url.Values) (int, error) {
	v := q.Get("k")
	if v == "" {
		return 0, badRequest("missing k parameter")
	}
	k, err := strconv.Atoi(v)
	if err != nil || k < 1 {
		return 0, badRequest("bad k %q", v)
	}
	return k, nil
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

// decodeDistance is /distance's decoder: the pair (u, v) from the query.
func decodeDistance(rq *request, _ *http.Request, sc *batchScratch) (graph.NodeID, error) {
	u, err := parseNodeID(rq.q, "u")
	if err != nil {
		return 0, err
	}
	v, err := parseNodeID(rq.q, "v")
	if err != nil {
		return 0, err
	}
	sc.pairs = append(sc.pairs[:0], [2]graph.NodeID{u, v})
	return max(u, v), nil
}

func answerDistance(s *Server, rq *request, sc *batchScratch, o *core.Oracle) any {
	u, v := sc.pairs[0][0], sc.pairs[0][1]
	start := time.Now()
	d := o.Query(u, v)
	lower := o.LowerQuery(u, v)
	s.met.queryLatency.Observe(time.Since(start).Seconds())
	resp := DistanceResponse{
		Graph:     rq.p.graph,
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
	return resp
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

// decodeClusterOf is /cluster-of's decoder: the node u, as the pair (u, u).
func decodeClusterOf(rq *request, _ *http.Request, sc *batchScratch) (graph.NodeID, error) {
	u, err := parseNodeID(rq.q, "u")
	if err != nil {
		return 0, err
	}
	sc.pairs = append(sc.pairs[:0], [2]graph.NodeID{u, u})
	return u, nil
}

func answerClusterOf(s *Server, rq *request, sc *batchScratch, o *core.Oracle) any {
	u := sc.pairs[0][0]
	start := time.Now()
	cl := o.Clustering()
	c := cl.Owner[u]
	resp := ClusterOfResponse{
		Graph:         rq.p.graph,
		U:             u,
		Cluster:       c,
		Center:        cl.Centers[c],
		DistToCenter:  cl.Dist[u],
		ClusterRadius: cl.Radii[c],
		NumClusters:   cl.NumClusters(),
	}
	s.met.queryLatency.Observe(time.Since(start).Seconds())
	return resp
}

// DiameterResponse answers /diameter with the certified bounds of
// Section 4: Lower = ∆C ≤ diameter ≤ Upper = 2R + ∆′C.
type DiameterResponse struct {
	Graph       string `json:"graph"`
	Lower       int64  `json:"lower"`
	Upper       int64  `json:"upper"`
	RMax        int32  `json:"r_max"`
	NumClusters int    `json:"num_clusters"`
}

func (s *Server) handleDiameter(rq *request, r *http.Request) (any, error) {
	a, err := s.artifact(r.Context(), rq, "diameter", rq.p)
	if err != nil {
		return nil, err
	}
	res := a.diameter
	return DiameterResponse{
		Graph:       rq.p.graph,
		Lower:       res.DeltaC,
		Upper:       res.Upper,
		RMax:        res.RMax,
		NumClusters: res.Clustering.NumClusters(),
	}, nil
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

func (s *Server) handleKCenter(rq *request, r *http.Request) (any, error) {
	k, err := parseK(rq.q)
	if err != nil {
		return nil, err
	}
	a, err := s.artifact(r.Context(), rq, "kcenter", buildParams{rq.p.graph, k, rq.p.seed, "cluster"})
	if err != nil {
		return nil, err
	}
	res := a.kcenter
	return KCenterResponse{
		Graph:   rq.p.graph,
		K:       k,
		Centers: res.Centers,
		Radius:  res.Radius,
		Merged:  res.Merged,
	}, nil
}
