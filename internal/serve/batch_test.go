package serve

// Tests for POST /distance-batch: every encoding answers exactly what the
// point endpoint answers pair by pair, ids are validated before any build
// (the PR 4 rule, extended to batches), and the warm path's
// zero-allocation guarantee is pinned by AllocsPerRun regression tests
// that run under the CI -race job.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime/debug"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
)

// encodePairsFrame builds the binary request frame the endpoint documents:
// "RPB1" | count u32 | count × (u i32, v i32), little-endian.
func encodePairsFrame(pairs [][2]graph.NodeID) []byte {
	out := make([]byte, 8+8*len(pairs))
	copy(out, "RPB1")
	binary.LittleEndian.PutUint32(out[4:8], uint32(len(pairs)))
	for i, p := range pairs {
		binary.LittleEndian.PutUint32(out[8+8*i:], uint32(p[0]))
		binary.LittleEndian.PutUint32(out[8+8*i+4:], uint32(p[1]))
	}
	return out
}

// decodeDistsFrame parses the binary response frame: "RPD1" | count u32 |
// count × dist i64.
func decodeDistsFrame(t *testing.T, body []byte) []int64 {
	t.Helper()
	if len(body) < 8 || string(body[:4]) != "RPD1" {
		t.Fatalf("bad response frame header %q", body[:min(len(body), 8)])
	}
	count := int(binary.LittleEndian.Uint32(body[4:8]))
	if len(body) != 8+8*count {
		t.Fatalf("response frame length %d for %d dists", len(body), count)
	}
	dists := make([]int64, count)
	for i := range dists {
		dists[i] = int64(binary.LittleEndian.Uint64(body[8+8*i:]))
	}
	return dists
}

func postBatch(t *testing.T, url, contentType, accept string, body []byte) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

// disconnectedGraph is a mesh plus a separate path component, so batches
// contain unreachable pairs.
func disconnectedGraph() *graph.Graph {
	mesh := graph.Mesh(20, 20)
	xadj, adj := mesh.CSR()
	b := graph.NewBuilder(mesh.NumNodes() + 10)
	for u := 0; u < mesh.NumNodes(); u++ {
		for _, v := range adj[xadj[u]:xadj[u+1]] {
			if graph.NodeID(u) < v {
				b.AddEdge(graph.NodeID(u), v)
			}
		}
	}
	for i := mesh.NumNodes(); i < mesh.NumNodes()+9; i++ {
		b.AddEdge(graph.NodeID(i), graph.NodeID(i+1))
	}
	return b.Build()
}

// The oracle's unreachable marks (one per table, at the tables' own cell
// widths) never reach the wire: a cross-component pair answers -1 / -1.
func TestDistanceUnreachableAnswersMinusOne(t *testing.T) {
	g := disconnectedGraph()
	_, ts := newTestServer(t, "mesh", g)
	var dr DistanceResponse
	if code := getJSON(t, fmt.Sprintf("%s/distance?graph=mesh&tau=2&seed=1&u=0&v=%d", ts.URL, g.NumNodes()-1), &dr); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if dr.Reachable || dr.Distance != -1 || dr.Lower != -1 {
		t.Fatalf("cross-component /distance = %+v, want unreachable with distance -1 and lower -1", dr)
	}
}

func TestDistanceBatchMatchesPointQueries(t *testing.T) {
	g := disconnectedGraph()
	_, ts := newTestServer(t, "mesh", g)
	n := g.NumNodes()
	r := rng.New(41)
	pairs := make([][2]graph.NodeID, 0, 300)
	for i := 0; i < 297; i++ {
		pairs = append(pairs, [2]graph.NodeID{graph.NodeID(r.Intn(n)), graph.NodeID(r.Intn(n))})
	}
	pairs = append(pairs,
		[2]graph.NodeID{7, 7},                                     // identity
		[2]graph.NodeID{0, graph.NodeID(n - 1)},                   // cross-component
		[2]graph.NodeID{graph.NodeID(n - 5), graph.NodeID(n - 1)}, // path component
	)

	// Point-query reference, including the -1 convention for unreachable.
	want := make([]int64, len(pairs))
	for i, p := range pairs {
		var dr DistanceResponse
		if code := getJSON(t, fmt.Sprintf("%s/distance?graph=mesh&tau=2&seed=1&u=%d&v=%d", ts.URL, p[0], p[1]), &dr); code != http.StatusOK {
			t.Fatalf("point query %v: status %d", p, code)
		}
		want[i] = dr.Distance
	}

	// JSON encoding.
	jbody, err := json.Marshal(map[string]any{"pairs": pairs})
	if err != nil {
		t.Fatal(err)
	}
	resp, raw := postBatch(t, ts.URL+"/distance-batch?graph=mesh&tau=2&seed=1", "application/json", "", jbody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("JSON batch: status %d: %s", resp.StatusCode, raw)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("JSON batch: content type %q", ct)
	}
	var jresp struct {
		Graph     string  `json:"graph"`
		Pairs     int     `json:"pairs"`
		Distances []int64 `json:"distances"`
	}
	if err := json.Unmarshal(raw, &jresp); err != nil {
		t.Fatalf("JSON batch response %q: %v", raw, err)
	}
	if jresp.Graph != "mesh" || jresp.Pairs != len(pairs) || len(jresp.Distances) != len(pairs) {
		t.Fatalf("JSON batch envelope: %+v", jresp)
	}
	for i := range pairs {
		if jresp.Distances[i] != want[i] {
			t.Fatalf("JSON batch pair %d (%v): got %d want %d", i, pairs[i], jresp.Distances[i], want[i])
		}
	}

	// Binary encoding of the same batch.
	resp, raw = postBatch(t, ts.URL+"/distance-batch?graph=mesh&tau=2&seed=1", "application/x-reprod-pairs", "", encodePairsFrame(pairs))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("binary batch: status %d: %s", resp.StatusCode, raw)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-reprod-dists" {
		t.Fatalf("binary batch: content type %q", ct)
	}
	dists := decodeDistsFrame(t, raw)
	if len(dists) != len(pairs) {
		t.Fatalf("binary batch: %d dists for %d pairs", len(dists), len(pairs))
	}
	for i := range pairs {
		if dists[i] != want[i] {
			t.Fatalf("binary batch pair %d (%v): got %d want %d", i, pairs[i], dists[i], want[i])
		}
	}
}

// TestDistanceBatchAnswersInRequestEncoding pins that the answer is
// encoded the way the request was, whatever the Accept header asks for: an
// RPB1 request gets the same RPD1 bytes with or without one, and a JSON
// request gets JSON.
func TestDistanceBatchAnswersInRequestEncoding(t *testing.T) {
	g := graph.Mesh(20, 20)
	_, ts := newTestServer(t, "mesh", g)
	r := rng.New(43)
	n := g.NumNodes()
	pairs := make([][2]graph.NodeID, 4000)
	for i := range pairs {
		pairs[i] = [2]graph.NodeID{graph.NodeID(r.Intn(n)), graph.NodeID(r.Intn(n))}
	}
	url := ts.URL + "/distance-batch?graph=mesh&tau=2&seed=1"
	const accept = "application/x-ndjson"
	frame := encodePairsFrame(pairs)
	plain, want := postBatch(t, url, "application/x-reprod-pairs", "", frame)
	resp, got := postBatch(t, url, "application/x-reprod-pairs", accept, frame)
	if plain.StatusCode != http.StatusOK || resp.StatusCode != http.StatusOK {
		t.Fatalf("binary batch: status %d without Accept, %d with it: %s", plain.StatusCode, resp.StatusCode, got)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-reprod-dists" {
		t.Fatalf("binary batch with Accept: content type %q", ct)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("binary batch: Accept %q changed the %d-byte answer", accept, len(want))
	}
	resp, raw := postBatch(t, url, "application/json", accept, mustJSON(t, pairs))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("JSON batch with Accept: status %d: %s", resp.StatusCode, raw)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("JSON batch with Accept: content type %q", ct)
	}
}

// TestDistanceBatchValidation covers the error surface, including the
// reject-before-build rule: a batch with any invalid id must 400 without
// building (or churning a cache slot on) an artifact.
func TestDistanceBatchValidation(t *testing.T) {
	g := graph.Mesh(10, 10)
	s, ts := newTestServer(t, "mesh", g)
	url := ts.URL + "/distance-batch?graph=mesh&tau=2&seed=1"

	okPairs := [][2]graph.NodeID{{0, 1}}
	cases := []struct {
		name        string
		url         string
		contentType string
		body        []byte
		wantStatus  int
		wantError   string // substring of the error body; "" = status only
	}{
		{"get method", url, "", nil, http.StatusMethodNotAllowed, ""},
		{"unknown graph", ts.URL + "/distance-batch?graph=nope", "application/json", mustJSON(t, okPairs), http.StatusNotFound, ""},
		{"missing graph", ts.URL + "/distance-batch", "application/json", mustJSON(t, okPairs), http.StatusBadRequest, ""},
		{"unsupported content type", url, "text/csv", []byte("0,1"), http.StatusUnsupportedMediaType, ""},
		{"malformed json", url, "application/json", []byte(`{"pairs":[[0`), http.StatusBadRequest, ""},
		{"empty batch json", url, "application/json", []byte(`{"pairs":[]}`), http.StatusBadRequest, ""},
		{"bad magic", url, "application/x-reprod-pairs", []byte("XXXX\x01\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00"), http.StatusBadRequest, ""},
		{"frame length mismatch", url, "application/x-reprod-pairs", encodePairsFrame(okPairs)[:12], http.StatusBadRequest, ""},
		{"short pair json", url, "application/json", []byte(`{"pairs":[[5]]}`), http.StatusBadRequest, "pair 0"},
		{"long pair json", url, "application/json", []byte(`{"pairs":[[1,2,3]]}`), http.StatusBadRequest, "pair 0"},
		{"empty pair json", url, "application/json", []byte(`{"pairs":[[]]}`), http.StatusBadRequest, "pair 0"},
		{"negative id json", url, "application/json", []byte(`{"pairs":[[0,1],[-3,2]]}`), http.StatusBadRequest, ""},
		{"out of range json", url, "application/json", []byte(`{"pairs":[[0,1],[5,100]]}`), http.StatusBadRequest, ""},
		{"out of range binary", url, "application/x-reprod-pairs", encodePairsFrame([][2]graph.NodeID{{0, 1}, {100, 5}}), http.StatusBadRequest, ""},
		{"overflowing count", url, "application/x-reprod-pairs",
			append([]byte("RPB1\xff\xff\xff\xff"), make([]byte, 16)...), http.StatusRequestEntityTooLarge, ""},
	}
	for _, tc := range cases {
		var (
			resp *http.Response
			raw  []byte
		)
		if tc.name == "get method" {
			r, err := http.Get(tc.url)
			if err != nil {
				t.Fatal(err)
			}
			raw, _ = io.ReadAll(r.Body)
			r.Body.Close()
			resp = r
		} else {
			resp, raw = postBatch(t, tc.url, tc.contentType, "", tc.body)
		}
		if resp.StatusCode != tc.wantStatus || !bytes.Contains(raw, []byte(tc.wantError)) {
			t.Errorf("%s: status %d (want %d, naming %q): %s", tc.name, resp.StatusCode, tc.wantStatus, tc.wantError, raw)
		}
	}

	// The too-many-pairs rejection, JSON side (just over the cap).
	big := bytes.NewBufferString(`{"pairs":[`)
	for i := 0; i <= MaxBatchPairs; i++ {
		if i > 0 {
			big.WriteByte(',')
		}
		big.WriteString("[0,1]")
	}
	big.WriteString("]}")
	resp, raw := postBatch(t, url, "application/json", "", big.Bytes())
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized JSON batch: status %d: %s", resp.StatusCode, raw[:min(len(raw), 120)])
	}

	// None of the invalid batches above may have started a build: the
	// validation runs before the artifact lookup.
	if builds, misses := s.met.builds.Value(), s.met.misses.Value(); builds != 0 || misses != 0 {
		t.Fatalf("invalid batches triggered builds: %d builds, %d misses", builds, misses)
	}

	// A valid batch then builds exactly once.
	resp, raw = postBatch(t, url, "application/json", "", mustJSON(t, okPairs))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("valid batch after errors: status %d: %s", resp.StatusCode, raw)
	}
	if n := s.met.builds.Value(); n != 1 {
		t.Fatalf("valid batch should have built once, built %d times", n)
	}
	if n := s.met.batchPairs.Value(); n != int64(len(okPairs)) {
		t.Fatalf("batch pairs counter %d, want %d", n, len(okPairs))
	}
}

func mustJSON(t *testing.T, pairs [][2]graph.NodeID) []byte {
	t.Helper()
	b, err := json.Marshal(map[string]any{"pairs": pairs})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// discardResponseWriter is an allocation-free ResponseWriter: the alloc
// regression tests measure the server, not a recorder's growing buffer.
type discardResponseWriter struct{ h http.Header }

func (w discardResponseWriter) Header() http.Header         { return w.h }
func (w discardResponseWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w discardResponseWriter) WriteHeader(int)             {}

// TestDistanceBatchZeroAllocPerPair pins the tentpole guarantee end to
// end: a warm binary batch request through the full handler stack
// (middleware, worker slot, pooled decode/encode) costs a small constant
// number of allocations — none of them per pair.
func TestDistanceBatchZeroAllocPerPair(t *testing.T) {
	g := graph.Mesh(30, 30)
	s, _ := newTestServer(t, "mesh", g)
	h := s.Handler()
	n := g.NumNodes()
	r := rng.New(47)
	const pairs = 8192
	ps := make([][2]graph.NodeID, pairs)
	for i := range ps {
		ps[i] = [2]graph.NodeID{graph.NodeID(r.Intn(n)), graph.NodeID(r.Intn(n))}
	}
	frame := encodePairsFrame(ps)
	req := httptest.NewRequest(http.MethodPost, "/distance-batch?graph=mesh&tau=2&seed=1", nil)
	req.Header.Set("Content-Type", "application/x-reprod-pairs")
	w := discardResponseWriter{h: make(http.Header)}
	body := bytes.NewReader(frame)

	// Warm: build the oracle and charge the pools outside the measurement.
	body.Reset(frame)
	req.Body = io.NopCloser(body)
	h.ServeHTTP(w, req)

	allocs := testing.AllocsPerRun(20, func() {
		body.Reset(frame)
		req.Body = io.NopCloser(body)
		h.ServeHTTP(w, req)
	})
	if perPair := allocs / pairs; perPair >= 0.01 {
		t.Fatalf("%.0f allocs per warm batch request (%.3f/pair), want 0/pair", allocs, perPair)
	}
	// The absolute bound keeps the per-request constant honest too: a
	// regression that adds per-pair work shows up orders of magnitude
	// above this.
	if allocs > 80 {
		t.Fatalf("%.0f allocs per warm batch request, want a small constant", allocs)
	}
}

// TestPointQueryAllocsPinned pins the warm point endpoints' allocation
// counts exactly, through Server.Handler() into a reused sink writer: the
// request record, its id and the id's header slot, the one url.Values parse
// (a map and one slice per parameter), the status counter's label lookup,
// and encoding/json's share (the Content-Type slot, the boxed response).
// Before the request path was written once the same requests cost 29 and 22
// — the query string was parsed three times and the record was three
// structs and a context copy. A new allocation here is a regression to
// explain, not to absorb. Under the race detector the count cannot be exact
// — sync.Pool.Put drops a quarter of its items there on purpose, and the
// request scratch and encoding/json's encoder state are pooled — so there
// the pin is a ceiling with that much slack.
func TestPointQueryAllocsPinned(t *testing.T) {
	slack := 0.0
	if bi, ok := debug.ReadBuildInfo(); ok && slices.Contains(bi.Settings, debug.BuildSetting{Key: "-race", Value: "true"}) {
		slack = 3
	}
	s, _ := newTestServer(t, "mesh", graph.Mesh(30, 30))
	h := s.Handler()
	w := discardResponseWriter{h: make(http.Header)}
	for _, tc := range []struct {
		url  string
		want float64
	}{
		{"/distance?graph=mesh&u=17&v=880", 12},
		{"/cluster-of?graph=mesh&u=17", 11},
	} {
		req := httptest.NewRequest(http.MethodGet, tc.url, nil)
		h.ServeHTTP(w, req) // warm: build the oracle, charge the pools
		if got := testing.AllocsPerRun(200, func() { h.ServeHTTP(w, req) }); got < tc.want || got > tc.want+slack {
			t.Errorf("%s: %.0f allocs per warm request, pinned at %.0f (+%.0f)", tc.url, got, tc.want, slack)
		}
	}
}

// TestBatchCodecZeroAllocs pins the two frame codecs at exactly zero: the
// request test above tolerates the HTTP stack's per-request constant, so
// one stray allocation per call inside a codec would hide in it.
// AllocsPerRun's own warm-up call charges the reused buffers.
func TestBatchCodecZeroAllocs(t *testing.T) {
	frame := encodePairsFrame(make([][2]graph.NodeID, 1024))
	dists := make([]int64, 1024)
	var pairs [][2]graph.NodeID
	var out []byte
	allocs := testing.AllocsPerRun(20, func() {
		pairs, _, _ = decodePairsBinary(pairs, frame)
		out = encodeDistsFrame(out, dists)
	})
	if allocs != 0 {
		t.Fatalf("decodePairsBinary + encodeDistsFrame allocated %.1f times per warm call, want 0", allocs)
	}
}

// BenchmarkDistanceBatch reports the batch path's pairs/sec and B/pair
// through the full handler stack (no network).
func BenchmarkDistanceBatch(b *testing.B) {
	g := graph.RoadLike(60, 60, 0.4, 17)
	s := New(Config{Workers: 8})
	if err := s.RegisterGraph("road", g); err != nil {
		b.Fatal(err)
	}
	h := s.Handler()
	n := g.NumNodes()
	r := rng.New(53)
	for _, size := range []int{64, 4096, 65536} {
		b.Run(fmt.Sprintf("pairs=%d", size), func(b *testing.B) {
			ps := make([][2]graph.NodeID, size)
			for i := range ps {
				ps[i] = [2]graph.NodeID{graph.NodeID(r.Intn(n)), graph.NodeID(r.Intn(n))}
			}
			frame := encodePairsFrame(ps)
			req := httptest.NewRequest(http.MethodPost, "/distance-batch?graph=road&tau=3&seed=7", nil)
			req.Header.Set("Content-Type", "application/x-reprod-pairs")
			w := discardResponseWriter{h: make(http.Header)}
			body := bytes.NewReader(frame)
			body.Reset(frame)
			req.Body = io.NopCloser(body)
			h.ServeHTTP(w, req) // warm build
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				body.Reset(frame)
				req.Body = io.NopCloser(body)
				h.ServeHTTP(w, req)
			}
			b.StopTimer()
			pairsDone := float64(size) * float64(b.N)
			b.ReportMetric(pairsDone/b.Elapsed().Seconds(), "pairs/s")
		})
	}
}

func TestDistanceBatchWrongContentTypeStrings(t *testing.T) {
	// Content-Type parameters (charset etc.) must not defeat the media
	// type match.
	g := graph.Mesh(5, 5)
	_, ts := newTestServer(t, "mesh", g)
	resp, raw := postBatch(t, ts.URL+"/distance-batch?graph=mesh&tau=2&seed=1",
		"application/json; charset=utf-8", "", mustJSON(t, [][2]graph.NodeID{{0, 1}}))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("charset parameter rejected: %d %s", resp.StatusCode, raw)
	}
}
