package serve

import (
	"net/http"
	"net/url"
	"strconv"
	"time"
)

// RequestLogEntry describes one completed HTTP request, handed to
// Config.RequestLog after the response is written. Cache is "hit" when the
// request was answered from a completed artifact, "miss" when it started a
// build, "join" when it attached to a build already in flight, and empty
// for endpoints that never touch the artifact cache.
type RequestLogEntry struct {
	ID          string
	Method      string
	Path        string
	Status      int
	Latency     time.Duration
	ArtifactKey string
	Cache       string
}

// request is the one per-request record, minted by instrument and handed
// down the request path as an argument: endpoint admits it and parses its
// query string, the handlers read the parameters off it, Server.get
// annotates it and parks its slot. It is also the ResponseWriter the
// handler writes through, so the status is captured where it is written
// (200 when the handler never calls WriteHeader). Only the request
// goroutine touches it, so plain fields suffice. Direct API callers have
// no record and pass nil where one is expected.
type request struct {
	http.ResponseWriter
	status int
	id     string

	// lane is the fast lane, held whether the request owns one of its slots
	// right now (only endpoint ever admits it): release is idempotent,
	// so the deferred release frees exactly what is held whether the
	// request completed, parked and resumed, or died parked.
	lane *lane
	held bool

	q url.Values // the query string, parsed once
	p buildParams

	key   Key    // zero until the request reaches the artifact cache
	cache string // how it met the cache: cacheHit, cacheMiss or cacheJoin
}

func (rq *request) WriteHeader(code int) {
	rq.status = code
	rq.ResponseWriter.WriteHeader(code)
}

// nextRequestID mints a request id unique within (and tagged by) this
// server process: a per-process base from the start time plus a sequence
// number zero-padded to six digits.
func (s *Server) nextRequestID() string {
	var digits [20]byte
	n := strconv.AppendInt(digits[:0], s.reqSeq.Add(1), 10)
	return s.idBase + "-" + "000000"[min(len(n), 6):] + string(n)
}

// instrument is the observability middleware wrapped around every
// endpoint: it mints the request record with its id (echoed as
// X-Request-ID), counts the request into the per-path/status counter,
// times it into the per-path latency histogram, tracks the in-flight
// gauge, and — when Config.RequestLog is set — emits one structured log
// entry per request, annotated with the artifact key and cache outcome if
// the request reached the artifact cache.
func (s *Server) instrument(path string, next func(*request, *http.Request)) http.Handler {
	lat := s.met.httpLatency.With(path) // resolve the series once, not per request
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rq := &request{ResponseWriter: w, status: http.StatusOK, id: s.nextRequestID(), lane: s.fast}
		w.Header().Set("X-Request-Id", rq.id) // X-Request-ID, spelled canonically so that Set does not allocate the respelling
		s.met.httpInFlight.Add(1)
		next(rq, r)
		s.met.httpInFlight.Add(-1)
		elapsed := time.Since(start)
		s.met.httpRequests.With(path, strconv.Itoa(rq.status)).Inc()
		lat.Observe(elapsed.Seconds())
		if rq.status >= 400 {
			s.met.errors.Inc()
		}
		if s.cfg.RequestLog != nil {
			entry := RequestLogEntry{
				ID:      rq.id,
				Method:  r.Method,
				Path:    path,
				Status:  rq.status,
				Latency: elapsed,
				Cache:   rq.cache,
			}
			// Formatted only here, so requests that are not logged — the
			// warm cache hits above all — never pay for the Sprintf.
			if rq.key != (Key{}) {
				entry.ArtifactKey = rq.key.String()
			}
			s.cfg.RequestLog(entry)
		}
	})
}
