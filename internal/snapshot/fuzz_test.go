package snapshot

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/graph"
)

// FuzzSnapshotLoad drives arbitrary bytes through the snapshot decoder via
// the same entry point the server restart path uses. The decoder's
// contract under corruption: return an error — never panic, never OOM on a
// hostile length field, and never hand back a structurally invalid
// artifact. Anything Load accepts must round-trip through Write/Read
// unchanged in its structural identity.
//
// Ordinary test runs replay the seeds below and the committed corpus under
// testdata/fuzz; CI adds 30 s of fresh coverage-guided input with
// go test -run '^$' -fuzz FuzzSnapshotLoad -fuzztime 30s ./internal/snapshot.
func FuzzSnapshotLoad(f *testing.F) {
	// Seed with a wholly valid graph-only snapshot so mutations explore the
	// deep decoder paths (sections, checksum) rather than dying at the
	// magic check, plus the classic shallow corruptions.
	g := graph.FromEdges(5, [][2]graph.NodeID{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}})
	var buf bytes.Buffer
	if err := Write(&buf, &Artifact{Meta: Meta{GraphName: "fuzz", Algorithm: "cluster", Tau: 2, Seed: 7}, Graph: g}); err != nil {
		f.Fatalf("seed snapshot: %v", err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)-1])           // truncated checksum
	f.Add([]byte{})                       // empty file
	f.Add([]byte("RPSN"))                 // magic only
	f.Add([]byte("RPSN\x02\x00\x00\x00")) // magic + version, no payload

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
	})
}
