package serve

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"net/url"
	"strconv"
	"testing"

	"repro/internal/graph"
)

// FuzzDecodePairsBinary drives arbitrary bytes through the RPB1 dense
// batch-frame decoder — the zero-allocation hot path that untrusted HTTP
// bodies reach before any artifact work. Contract under garbage: reject
// with an error, never panic, and never return out-of-contract data
// (negative ids, a count disagreeing with the header, a wrong max id).
//
// Ordinary test runs replay the seeds below and the committed corpus under
// testdata/fuzz; CI adds 30 s of fresh coverage-guided input with
// go test -run '^$' -fuzz FuzzDecodePairsBinary -fuzztime 30s ./internal/serve.
func FuzzDecodePairsBinary(f *testing.F) {
	// A valid 3-pair frame, plus shallow corruptions of it.
	frame := make([]byte, 8+8*3)
	copy(frame, pairsMagic[:])
	binary.LittleEndian.PutUint32(frame[4:], 3)
	for i, p := range [][2]uint32{{0, 1}, {7, 2}, {3, 3}} {
		binary.LittleEndian.PutUint32(frame[8+8*i:], p[0])
		binary.LittleEndian.PutUint32(frame[8+8*i+4:], p[1])
	}
	f.Add(frame)
	f.Add(frame[:11])     // truncated mid-header
	f.Add([]byte{})       // empty body
	f.Add([]byte("RPB1")) // magic only

	huge := make([]byte, 8)
	copy(huge, pairsMagic[:])
	binary.LittleEndian.PutUint32(huge[4:], 1<<31-1) // count overflow probe
	f.Add(huge)

	neg := make([]byte, 8+8)
	copy(neg, pairsMagic[:])
	binary.LittleEndian.PutUint32(neg[4:], 1)
	binary.LittleEndian.PutUint32(neg[8:], 0xffffffff) // negative NodeID
	f.Add(neg)

	f.Fuzz(func(t *testing.T, body []byte) {
		pairs, maxID, err := decodePairsBinary(nil, body)
		if err != nil {
			return // rejected cleanly
		}
		count := int(binary.LittleEndian.Uint32(body[4:8]))
		if len(pairs) != count {
			t.Fatalf("decoded %d pairs, header says %d", len(pairs), count)
		}
		var want graph.NodeID
		for _, p := range pairs {
			if p[0] < 0 || p[1] < 0 {
				t.Fatalf("accepted negative pair %v", p)
			}
			if p[0] > want {
				want = p[0]
			}
			if p[1] > want {
				want = p[1]
			}
		}
		if maxID != want {
			t.Fatalf("maxID %d, recomputed %d", maxID, want)
		}
	})
}

// FuzzDecodePairsJSON drives arbitrary bytes through the JSON batch-body
// decoder. Contract: never panic, and anything accepted must be what a
// strict reference decode sees — every inner array of length exactly 2,
// every value a non-negative int32 — with the same pairs and the same
// max id. The first three seeds are the malformed-arity bodies the
// reflective decoder used to answer as (5,0), (1,2) and (0,0).
func FuzzDecodePairsJSON(f *testing.F) {
	f.Add([]byte(`{"pairs":[[5]]}`))
	f.Add([]byte(`{"pairs":[[1,2,3]]}`))
	f.Add([]byte(`{"pairs":[[]]}`))
	f.Add([]byte(`{"pairs":[[0,1],[7,2],[3,3]]}`))

	f.Fuzz(func(t *testing.T, body []byte) {
		pairs, maxID, err := decodePairsJSON(nil, body)
		if err != nil {
			return // rejected cleanly
		}
		var ref struct {
			Pairs [][]json.Number `json:"pairs"`
		}
		if err := json.Unmarshal(body, &ref); err != nil {
			t.Fatalf("accepted %q, reference decode fails: %v", body, err)
		}
		if len(pairs) != len(ref.Pairs) {
			t.Fatalf("decoded %d pairs from %q, reference sees %d", len(pairs), body, len(ref.Pairs))
		}
		var want graph.NodeID
		for i, rp := range ref.Pairs {
			if len(rp) != 2 {
				t.Fatalf("accepted %q: pair %d has %d elements", body, i, len(rp))
			}
			for j, num := range rp {
				id, err := strconv.ParseInt(string(num), 10, 32)
				if err != nil || id < 0 || graph.NodeID(id) != pairs[i][j] {
					t.Fatalf("accepted %q: pair %d id %d is %q, decoded %d (%v)", body, i, j, num, pairs[i][j], err)
				}
				want = max(want, graph.NodeID(id))
			}
		}
		if maxID != want {
			t.Fatalf("maxID %d, recomputed %d", maxID, want)
		}
	})
}

// FuzzRequestParams drives raw query strings through the single parser of
// the request path — url.Values once, then parseBuildParams, parseNodeID
// and parseK over it — the last untrusted input that was not fuzzed.
// Contract: never panic; whatever is accepted is in range (a graph name, a
// canonical algorithm, tau >= 0, node ids in [0, 2³¹), k >= 1) and is what
// the query string says; whatever is rejected is a 4xx httpError.
func FuzzRequestParams(f *testing.F) {
	for _, raw := range []string{
		"graph=mesh&u=0&v=99",
		"graph=mesh&u=5&v=77&tau=3&seed=9&algo=cluster2",
		"graph=mesh&k=4&seed=18446744073709551615",
		"graph=mesh&u=-1&v=1",
		"graph=mesh&u=999999999999",
		"graph=mesh&u=2147483648&v=2147483647",
		"graph=mesh&tau=-4",
		"graph=mesh&tau=9223372036854775808",
		"graph=mesh&seed=-1",
		"graph=mesh&algo=bogus",
		"graph=mesh&k=0",
		"u=0&v=1",
		"graph=mesh&u=1&u=2&v=3",
		"graph=mesh&u=0&v=1;x=2",
		"graph=%6desh&u=%31&v=%zz",
		"graph=&u=+1&v=0x10&k=1e3",
		"graph=mesh&u=-0&v=007&k=%2B3",
		"",
	} {
		f.Add(raw)
	}
	s := New(Config{DefaultSeed: 7})
	rejected := func(t *testing.T, raw string, err error) {
		var he *httpError
		if !errors.As(err, &he) || he.status < 400 || he.status >= 500 {
			t.Fatalf("%q rejected with %v, want a 4xx httpError", raw, err)
		}
	}
	f.Fuzz(func(t *testing.T, raw string) {
		q, _ := url.ParseQuery(raw) // what (*url.URL).Query does
		if p, err := s.parseBuildParams(q); err != nil {
			rejected(t, raw, err)
		} else {
			if p.graph == "" || p.graph != q.Get("graph") || (p.algo != "cluster" && p.algo != "cluster2") || p.tau < 0 {
				t.Fatalf("%q accepted as %+v", raw, p)
			}
			if want, err := strconv.ParseUint(q.Get("seed"), 10, 64); (q.Get("seed") == "" && p.seed != 7) || (err == nil && p.seed != want) {
				t.Fatalf("%q: seed %d", raw, p.seed)
			}
		}
		for _, name := range []string{"u", "v"} {
			if id, err := parseNodeID(q, name); err != nil {
				rejected(t, raw, err)
			} else if want, _ := strconv.ParseInt(q.Get(name), 10, 64); id < 0 || int64(id) != want {
				t.Fatalf("%q: %s accepted as %d", raw, name, id)
			}
		}
		if k, err := parseK(q); err != nil {
			rejected(t, raw, err)
		} else if want, _ := strconv.ParseInt(q.Get("k"), 10, 64); k < 1 || int64(k) != want {
			t.Fatalf("%q: k accepted as %d", raw, k)
		}
	})
}
