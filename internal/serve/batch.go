package serve

// batch.go is the zero-allocation, batch-first query path: POST
// /distance-batch answers up to MaxBatchPairs (u, v) pairs per request
// straight off the oracle's flat tables. Two encodings share one
// pipeline, and the answer is encoded the way the request was:
//
//   - JSON (Content-Type: application/json): body {"pairs":[[u,v],...]},
//     response {"graph":...,"pairs":N,"distances":[...]} with -1 for
//     unreachable pairs, matching the point endpoint's convention.
//   - Dense binary frames (Content-Type: application/x-reprod-pairs):
//     request "RPB1" | count u32 | count × (u i32, v i32); response
//     (Content-Type: application/x-reprod-dists) "RPD1" | count u32 |
//     count × dist i64, everything little-endian, -1 for unreachable.
//
// Every id is validated before the artifact lookup — queryPairs, the one
// pipeline the point endpoints run through as batches of one, so a garbage
// batch can never trigger (or churn a cache slot on) a multi-second
// decomposition. All request-lifetime scratch (body buffer, decoded
// pairs, distances, encode buffer) lives in a sync.Pool and is reused
// across requests: the warm path allocates nothing per pair, pinned by
// the AllocsPerRun regression tests in batch_test.go.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/graph"
)

// MaxBatchPairs bounds one /distance-batch request (~64k pairs: 512 KiB
// of binary request, 512 KiB of binary response). Both request decoders
// reject a larger batch with 413. Bigger workloads split into multiple
// requests.
const MaxBatchPairs = 1 << 16

// maxBatchBody bounds the raw request body before decoding: the JSON
// encoding of MaxBatchPairs pairs of 10-digit ids comfortably fits.
const maxBatchBody = 4 << 20

// Batch media types. JSON requests use the standard application/json.
const (
	ctBatchPairs = "application/x-reprod-pairs" // binary request frame
	ctBatchDists = "application/x-reprod-dists" // binary response frame
)

// Binary frame magics: 4 bytes leading the request and response frames,
// so a client that posts the wrong encoding fails loudly instead of
// having its byte stream reinterpreted.
var (
	pairsMagic = [4]byte{'R', 'P', 'B', '1'}
	distsMagic = [4]byte{'R', 'P', 'D', '1'}
)

// batchScratch is the per-request working set, pooled and reused: the
// warm path reads the body, decodes pairs, answers, and encodes the
// response entirely inside these four buffers. A point query is a batch of
// one and uses the pairs buffer alone.
type batchScratch struct {
	body   []byte            // raw request body
	pairs  [][2]graph.NodeID // decoded (u, v) pairs
	dists  []int64           // per-pair answers
	out    []byte            // encoded response
	binary bool              // the request arrived as a dense binary frame
}

var batchPool = sync.Pool{New: func() any { return new(batchScratch) }}

// queryPairs is the one pipeline of the oracle-backed endpoints: /distance,
// /cluster-of and /distance-batch in its three encodings are a decoder and
// an answer around it. decode fills sc.pairs from the request and returns
// the largest id among them, every id non-negative; answer runs the kernel
// for the decoded pairs on the oracle and returns the response (or writes
// it, in the batch encodings). Between them the pipeline takes the pooled
// scratch and resolves the graph and the oracle once, range-checking the ids
// on both sides of the artifact lookup: first against the registered graph,
// BEFORE the lookup, so an out-of-range id is a cheap 400 instead of the
// trigger for (and a cache slot spent on) a multi-second decomposition; then
// against the oracle's own graph, because RegisterGraph may swap the
// topology between the two. Each check is one comparison against the
// maximum; only the failure path scans to name the offending pair.
func (s *Server) queryPairs(
	decode func(rq *request, r *http.Request, sc *batchScratch) (maxID graph.NodeID, err error),
	answer func(s *Server, rq *request, sc *batchScratch, o *core.Oracle) any,
) func(*request, *http.Request) (any, error) {
	return func(rq *request, r *http.Request) (any, error) {
		sc := batchPool.Get().(*batchScratch)
		defer batchPool.Put(sc)
		maxID, err := decode(rq, r, sc)
		if err != nil {
			return nil, err
		}
		g, err := s.Graph(rq.p.graph)
		if err != nil {
			return nil, err
		}
		if err := checkBatchRange(sc.pairs, maxID, g); err != nil {
			return nil, err
		}
		a, err := s.get(r.Context(), rq, s.key("oracle", g, rq.p), buildOracle)
		if err != nil {
			return nil, err
		}
		if err := checkBatchRange(sc.pairs, maxID, a.oracle.Clustering().G); err != nil {
			return nil, err
		}
		return answer(s, rq, sc, a.oracle), nil
	}
}

// decodeBatch is /distance-batch's decoder: the body, in either request
// encoding, read and decoded inside the scratch.
func decodeBatch(_ *request, r *http.Request, sc *batchScratch) (maxID graph.NodeID, err error) {
	ct := r.Header.Get("Content-Type")
	if i := strings.IndexByte(ct, ';'); i >= 0 {
		ct = strings.TrimSpace(ct[:i])
	}
	sc.binary = ct == ctBatchPairs
	if !sc.binary && ct != "" && ct != "application/json" {
		return 0, &httpError{http.StatusUnsupportedMediaType,
			"distance-batch accepts application/json or " + ctBatchPairs}
	}
	if sc.body, err = readBodyInto(sc.body, r.Body, maxBatchBody); err != nil {
		return 0, err
	}
	if sc.binary {
		sc.pairs, maxID, err = decodePairsBinary(sc.pairs[:0], sc.body)
	} else {
		sc.pairs, maxID, err = decodePairsJSON(sc.pairs[:0], sc.body)
	}
	if err == nil && len(sc.pairs) == 0 {
		err = badRequest("empty batch")
	}
	return maxID, err
}

// answerBatch answers the decoded pairs in the request's encoding, writing
// the response itself out of the pooled buffers.
func answerBatch(s *Server, rq *request, sc *batchScratch, o *core.Oracle) any {
	pairs := sc.pairs
	if cap(sc.dists) < len(pairs) {
		sc.dists = make([]int64, len(pairs))
	}
	dists := sc.dists[:len(pairs)]
	o.QueryBatchInto(pairs, dists)
	s.met.batchPairs.Add(int64(len(pairs)))
	s.met.batchSize.Observe(float64(len(pairs)))

	if sc.binary {
		writeBatchBinary(rq, sc, dists)
	} else {
		writeBatchJSON(rq, sc, rq.p.graph, dists)
	}
	return nil
}

// readBodyInto reads r into dst (reusing its capacity) up to max bytes,
// returning 413 beyond that.
func readBodyInto(dst []byte, r io.Reader, max int) ([]byte, error) {
	dst = dst[:0]
	if cap(dst) == 0 {
		dst = make([]byte, 0, 64<<10)
	}
	for {
		if len(dst) == cap(dst) {
			dst = append(dst, 0)[:len(dst)]
		}
		n, err := r.Read(dst[len(dst):cap(dst)])
		dst = dst[:len(dst)+n]
		if len(dst) > max {
			return dst, &httpError{http.StatusRequestEntityTooLarge,
				"batch body exceeds " + strconv.Itoa(max) + " bytes"}
		}
		if err == io.EOF {
			return dst, nil
		}
		if err != nil {
			return dst, badRequest("reading batch body: %v", err)
		}
	}
}

// decodePairsBinary parses the dense request frame into dst, returning
// the decoded pairs and the largest id seen. Negative ids and size
// mismatches are rejected here, before any artifact work. Zero
// allocations once warm, pinned by TestBatchCodecZeroAllocs.
func decodePairsBinary(dst [][2]graph.NodeID, body []byte) ([][2]graph.NodeID, graph.NodeID, error) {
	if len(body) < 8 || body[0] != pairsMagic[0] || body[1] != pairsMagic[1] ||
		body[2] != pairsMagic[2] || body[3] != pairsMagic[3] {
		return dst, 0, badRequest("bad batch frame: want %q magic + u32 count header", pairsMagic[:])
	}
	count := int(binary.LittleEndian.Uint32(body[4:8]))
	if count > MaxBatchPairs {
		return dst, 0, &httpError{http.StatusRequestEntityTooLarge,
			"batch of " + strconv.Itoa(count) + " pairs exceeds the " + strconv.Itoa(MaxBatchPairs) + "-pair limit"}
	}
	if len(body) != 8+8*count {
		return dst, 0, badRequest("batch frame length %d does not match %d pairs (want %d)",
			len(body), count, 8+8*count)
	}
	if cap(dst) < count {
		// Pool warm-up: the first batch per size class grows the buffer.
		dst = make([][2]graph.NodeID, 0, count)
	}
	dst = dst[:count]
	var maxID, orAcc graph.NodeID
	payload := body[8:]
	for i := 0; i < count; i++ {
		u := graph.NodeID(binary.LittleEndian.Uint32(payload[8*i:]))
		v := graph.NodeID(binary.LittleEndian.Uint32(payload[8*i+4:]))
		orAcc |= u | v
		maxID = max(maxID, u, v)
		dst[i] = [2]graph.NodeID{u, v}
	}
	if orAcc < 0 {
		return dst, 0, firstNegativePair(dst)
	}
	return dst, maxID, nil
}

// decodePairsJSON parses {"pairs":[[u,v],...]} into dst, reusing its
// backing array. The outer object is encoding/json's (unknown members
// ignored, the last "pairs" wins); the pairs themselves are pairList's.
func decodePairsJSON(dst [][2]graph.NodeID, body []byte) ([][2]graph.NodeID, graph.NodeID, error) {
	var req struct {
		Pairs pairList `json:"pairs"`
	}
	req.Pairs = dst
	if err := json.Unmarshal(body, &req); err != nil {
		return dst, 0, badRequest("bad batch JSON: %v", err)
	}
	dst = req.Pairs
	if len(dst) > MaxBatchPairs {
		return dst, 0, &httpError{http.StatusRequestEntityTooLarge,
			"batch of " + strconv.Itoa(len(dst)) + " pairs exceeds the " + strconv.Itoa(MaxBatchPairs) + "-pair limit"}
	}
	var maxID, orAcc graph.NodeID
	for _, p := range dst {
		orAcc |= p[0] | p[1]
		maxID = max(maxID, p[0], p[1])
	}
	if orAcc < 0 {
		return dst, 0, firstNegativePair(dst)
	}
	return dst, maxID, nil
}

// pairList is the "pairs" member of a JSON batch. Left to encoding/json a
// [2]NodeID element zero-fills when the array is short and drops what is
// beyond two, so [[5]] would be answered as (5,0) and [[1,2,3]] as (1,2);
// UnmarshalJSON scans the inner arrays itself, straight into the backing
// array it was handed, and rejects any pair that is not exactly two
// integers that fit a NodeID. data is a complete JSON value (encoding/json
// validates the whole body first), so on anything else the scan only has
// to stay in bounds, not diagnose it.
type pairList [][2]graph.NodeID

func (p *pairList) UnmarshalJSON(data []byte) error {
	dst := (*p)[:0]
	*p = dst
	if string(data) == "null" {
		return nil
	}
	rest, ok := eatJSON(data, '[')
	if !ok {
		return errors.New(`"pairs" must be an array of [u,v] pairs`)
	}
	for {
		if rest, ok = eatJSON(rest, ']'); ok || len(rest) == 0 {
			break
		}
		if rest, ok = eatJSON(rest, '['); !ok {
			return fmt.Errorf("pair %d: want a [u,v] array", len(dst))
		}
		var pair [2]graph.NodeID
		arity := 0
		for {
			if rest, ok = eatJSON(rest, ']'); ok || len(rest) == 0 {
				break
			}
			if arity == len(pair) {
				return fmt.Errorf("pair %d: want 2 node ids, got more", len(dst))
			}
			// The element runs to the next delimiter; a string or a
			// nested value that holds one is cut short and fails to parse.
			n := max(bytes.IndexAny(rest, jsonSpace+",]"), 0)
			id, err := strconv.ParseInt(string(rest[:n]), 10, 32)
			if err != nil {
				return fmt.Errorf("pair %d: want integer node ids that fit 32 bits", len(dst))
			}
			pair[arity] = graph.NodeID(id)
			arity++
			rest, _ = eatJSON(bytes.TrimLeft(rest[n:], jsonSpace), ',')
		}
		if arity != len(pair) {
			return fmt.Errorf("pair %d: want 2 node ids, got %d", len(dst), arity)
		}
		dst = append(dst, pair)
		rest, _ = eatJSON(rest, ',')
	}
	*p = dst
	return nil
}

const jsonSpace = " \t\r\n"

// eatJSON reports whether data starts with the delimiter c and, if so,
// returns what follows it and the whitespace after it.
func eatJSON(data []byte, c byte) ([]byte, bool) {
	if len(data) == 0 || data[0] != c {
		return data, false
	}
	return bytes.TrimLeft(data[1:], jsonSpace), true
}

// firstNegativePair names the first pair with a negative id — the slow
// path of the sign check the decoders accumulate bitwise.
func firstNegativePair(pairs [][2]graph.NodeID) error {
	for i, p := range pairs {
		if p[0] < 0 || p[1] < 0 {
			return badRequest("pair %d: negative node id (%d,%d)", i, p[0], p[1])
		}
	}
	return badRequest("negative node id in batch")
}

// checkBatchRange enforces the pre-build validation rule for batches: one
// comparison against the batch maximum on the happy path, a scan naming
// the first offending pair on failure.
func checkBatchRange(pairs [][2]graph.NodeID, maxID graph.NodeID, g *graph.Graph) error {
	n := g.NumNodes()
	if int(maxID) < n {
		return nil
	}
	for i, p := range pairs {
		if int(p[0]) >= n {
			return badRequest("pair %d: node u=%d out of range [0, %d)", i, p[0], n)
		}
		if int(p[1]) >= n {
			return badRequest("pair %d: node v=%d out of range [0, %d)", i, p[1], n)
		}
	}
	return badRequest("node id out of range [0, %d)", n)
}

// encodeDistsFrame encodes the RPD1 response frame ("RPD1" | count u32 |
// count × i64) into buf, growing it only when the pooled buffer is too
// small for this size class. Unreachable pairs encode as -1. Split out of
// writeBatchBinary so the pure encode loop can be pinned at zero
// allocations once warm (TestBatchCodecZeroAllocs).
func encodeDistsFrame(buf []byte, dists []int64) []byte {
	need := 8 + 8*len(dists)
	if cap(buf) < need {
		// Pool warm-up: the first response per size class grows the buffer.
		buf = make([]byte, 0, need)
	}
	out := buf[:need]
	copy(out, distsMagic[:])
	binary.LittleEndian.PutUint32(out[4:8], uint32(len(dists)))
	for i, d := range dists {
		if d == graph.InfDist {
			d = -1
		}
		binary.LittleEndian.PutUint64(out[8+8*i:], uint64(d))
	}
	return out
}

// writeBatchBinary answers with the dense response frame, encoding into
// the pooled buffer and writing once.
func writeBatchBinary(w http.ResponseWriter, sc *batchScratch, dists []int64) {
	sc.out = encodeDistsFrame(sc.out, dists)
	w.Header().Set("Content-Type", ctBatchDists)
	w.Header().Set("Content-Length", strconv.Itoa(len(sc.out)))
	w.Write(sc.out)
}

// writeBatchJSON answers {"graph":...,"pairs":N,"distances":[...]},
// hand-encoded into the pooled buffer with strconv appends — the JSON
// response costs no per-pair allocation either.
func writeBatchJSON(w http.ResponseWriter, sc *batchScratch, graphName string, dists []int64) {
	out := append(sc.out[:0], `{"graph":`...)
	out = appendJSONString(out, graphName)
	out = append(out, `,"pairs":`...)
	out = strconv.AppendInt(out, int64(len(dists)), 10)
	out = append(out, `,"distances":[`...)
	for i, d := range dists {
		if i > 0 {
			out = append(out, ',')
		}
		if d == graph.InfDist {
			d = -1
		}
		out = strconv.AppendInt(out, d, 10)
	}
	out = append(out, "]}\n"...)
	sc.out = out
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(out)))
	w.Write(out)
}

// appendJSONString appends s as a JSON string literal, escaping quotes,
// backslashes, and control characters. Graph names are short and almost
// always plain ASCII; anything fancier goes through the \u00XX escape.
func appendJSONString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"' || c == '\\':
			dst = append(dst, '\\', c)
		case c < 0x20:
			dst = append(dst, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
		default:
			dst = append(dst, c)
		}
	}
	return append(dst, '"')
}
