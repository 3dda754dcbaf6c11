package snapshot

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
)

// FuzzSnapshotLoad drives arbitrary bytes through the snapshot decoder via
// the same entry point the server restart path uses. The decoder's
// contract under corruption: return an error — never panic, never OOM on a
// hostile length field, and never hand back a structurally invalid
// artifact. Anything Load accepts must round-trip through Write/Read
// unchanged in its structural identity.
//
// Ordinary test runs replay fuzzSeeds and the committed corpus under
// testdata/fuzz; CI adds 30 s of fresh coverage-guided input with
// go test -run '^$' -fuzz FuzzSnapshotLoad -fuzztime 30s ./internal/snapshot.
func FuzzSnapshotLoad(f *testing.F) {
	for _, seed := range fuzzSeeds(f) {
		f.Add(seed.data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.snap")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatalf("writing fuzz input: %v", err)
		}
		a, err := Load(path)
		if err != nil {
			return // rejected cleanly: the only acceptable failure mode
		}
		if a == nil || a.Graph == nil {
			t.Fatalf("Load returned nil artifact without error")
		}
		// Accepted input: the decoded artifact must re-encode and decode to
		// the same structural identity.
		var rt bytes.Buffer
		if err := Write(&rt, a); err != nil {
			t.Fatalf("re-encoding accepted artifact: %v", err)
		}
		b, err := Read(bytes.NewReader(rt.Bytes()))
		if err != nil {
			t.Fatalf("round-trip of accepted artifact: %v", err)
		}
		if b.Graph.NumNodes() != a.Graph.NumNodes() || b.Graph.NumArcs() != a.Graph.NumArcs() {
			t.Fatalf("round-trip changed graph shape: %d/%d nodes, %d/%d arcs",
				a.Graph.NumNodes(), b.Graph.NumNodes(), a.Graph.NumArcs(), b.Graph.NumArcs())
		}
		if b.Meta != a.Meta {
			t.Fatalf("round-trip changed meta: %+v vs %+v", a.Meta, b.Meta)
		}
		if (b.Oracle == nil) != (a.Oracle == nil) {
			t.Fatalf("round-trip changed oracle presence")
		}
		if a.Oracle != nil && b.Oracle.NumClusters() != a.Oracle.NumClusters() {
			t.Fatalf("round-trip changed the cluster count: %d vs %d", a.Oracle.NumClusters(), b.Oracle.NumClusters())
		}
	})
}

type fuzzSeed struct {
	name string // the committed corpus file carrying the same bytes
	data []byte
}

// fuzzSeeds are FuzzSnapshotLoad's starting points, all in the current
// format version so mutations start inside the decoder rather than die at
// the version check: a wholly valid graph-only snapshot and a wholly valid
// oracle-bearing one (two components, so its tables hold both unreachable
// marks), the second also cut in the middle of its distance table, plus the
// classic shallow corruptions.
func fuzzSeeds(t testing.TB) []fuzzSeed {
	meta := Meta{GraphName: "seed", Algorithm: "cluster", Tau: 2, Seed: 7}
	valid := encode(t, &Artifact{Meta: meta, Graph: graph.FromEdges(5, [][2]graph.NodeID{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}})})
	flipped := bytes.Clone(valid)
	flipped[len(flipped)/2] ^= 0x40

	g := graph.FromEdges(9, [][2]graph.NodeID{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {6, 7}, {7, 8}})
	o, err := core.BuildOracle(context.Background(), g, meta.Tau, false, core.Options{Seed: meta.Seed})
	if err != nil {
		t.Fatalf("seed oracle: %v", err)
	}
	oracle := encode(t, &Artifact{Meta: meta, Graph: g, Oracle: o})
	// The file ends with apsp (4·T bytes), hops (2·T) and the trailer (4), T
	// the k(k−1)/2 cells of a triangle; the cut must land inside apsp.
	k := o.NumClusters()
	cells := k * (k - 1) / 2
	apspEnd := len(oracle) - 4 - 2*cells
	midTable := apspEnd - 2*cells // half of apsp
	if apspStart := apspEnd - 4*cells; midTable <= apspStart || midTable >= apspEnd {
		t.Fatalf("seed oracle of %d clusters: cut at byte %d is outside its apsp section [%d, %d)", k, midTable, apspStart, apspEnd)
	}
	return []fuzzSeed{
		{"valid-graph", valid},
		{"truncated-checksum", valid[:len(valid)-1]},
		{"empty", []byte{}},
		{"magic-only", []byte("RPSN")},
		{"magic-version", valid[:8]}, // "RPSN\x04\x00" and empty flags, no payload
		{"bitflip-mid", flipped},
		{"valid-oracle", oracle},
		{"oracle-truncated-mid-table", oracle[:midTable]},
	}
}

// The committed corpus under testdata/fuzz is these seeds, byte for byte: a
// format change that forgets to regenerate it (UPDATE_FUZZ_CORPUS=1 go test
// -run CorpusIsCurrent ./internal/snapshot) would leave the corpus replaying
// the version check and nothing else, which is what this test refuses.
func TestFuzzCorpusIsCurrent(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzSnapshotLoad")
	for _, seed := range fuzzSeeds(t) {
		path := filepath.Join(dir, seed.name)
		want := []byte(fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", seed.data))
		if os.Getenv("UPDATE_FUZZ_CORPUS") != "" {
			if err := os.WriteFile(path, want, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want) {
			t.Errorf("%s is not the current encoding of its seed (err = %v)", path, err)
		}
	}
}
