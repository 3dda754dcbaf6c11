package serve

import (
	"context"
	"fmt"
	"net/http"
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

// requestInfo rides the request context so the artifact cache can
// annotate the request that reached it; the handler goroutine writes and
// reads it, so plain fields suffice.
type requestInfo struct {
	id    string
	key   Key // zero until the request reaches the artifact cache
	cache string

	// slot is the request's fast-lane admission handle, set by wrapRaw so
	// the artifact cache can park it while the request blocks on a build.
	// Nil for direct API callers that never took a slot.
	slot *laneSlot
}

type requestInfoKey struct{}

func requestInfoFrom(ctx context.Context) *requestInfo {
	ri, _ := ctx.Value(requestInfoKey{}).(*requestInfo)
	return ri
}

// statusRecorder captures the status a handler writes. The default is 200:
// a handler that writes the body without calling WriteHeader implicitly
// answered OK.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (w *statusRecorder) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// nextRequestID mints a request id unique within (and tagged by) this
// server process: a per-process base from the start time plus a sequence
// number, cheap enough for the per-request hot path.
func (s *Server) nextRequestID() string {
	return fmt.Sprintf("%s-%06d", s.idBase, s.reqSeq.Add(1))
}

// instrument is the observability middleware wrapped around every
// endpoint: it stamps a request id (echoed as X-Request-ID), counts the
// request into the per-path/status counter, times it into the per-path
// latency histogram, tracks the in-flight gauge, and — when
// Config.RequestLog is set — emits one structured log entry per request,
// annotated with the artifact key and cache outcome if the request reached
// the artifact cache.
func (s *Server) instrument(path string, next http.Handler) http.Handler {
	lat := s.met.httpLatency.With(path) // resolve the series once, not per request
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		ri := &requestInfo{id: s.nextRequestID()}
		w.Header().Set("X-Request-ID", ri.id)
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		s.met.requests.Add(1)
		s.met.httpInFlight.Add(1)
		next.ServeHTTP(rec, r.WithContext(context.WithValue(r.Context(), requestInfoKey{}, ri)))
		s.met.httpInFlight.Add(-1)
		elapsed := time.Since(start)
		s.met.httpRequests.With(path, strconv.Itoa(rec.status)).Inc()
		lat.Observe(elapsed.Seconds())
		if rec.status >= 400 {
			s.met.errors.Inc()
		}
		if s.cfg.RequestLog != nil {
			entry := RequestLogEntry{
				ID:      ri.id,
				Method:  r.Method,
				Path:    path,
				Status:  rec.status,
				Latency: elapsed,
				Cache:   ri.cache,
			}
			// Formatted only here, so requests that are not logged — the
			// warm cache hits above all — never pay for the Sprintf.
			if ri.key != (Key{}) {
				entry.ArtifactKey = ri.key.String()
			}
			s.cfg.RequestLog(entry)
		}
	})
}
