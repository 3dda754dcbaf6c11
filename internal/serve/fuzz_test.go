package serve

import (
	"encoding/binary"
	"encoding/json"
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
