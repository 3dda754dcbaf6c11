package snapshot

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/rng"
)

func buildArtifact(t *testing.T, g *graph.Graph, tau int, seed uint64) *Artifact {
	t.Helper()
	o, err := core.BuildOracle(context.Background(), g, tau, false, core.Options{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return &Artifact{
		Meta:   Meta{GraphName: "test", Tau: tau, Seed: seed, Algorithm: "cluster"},
		Graph:  g,
		Oracle: o,
	}
}

func encode(t testing.TB, a *Artifact) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, a); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func roundTrip(t *testing.T, a *Artifact) *Artifact {
	t.Helper()
	got, err := Read(bytes.NewReader(encode(t, a)))
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// Graph round-trip: the decoded CSR arrays must be bit-identical.
func TestGraphRoundTrip(t *testing.T) {
	for _, g := range []*graph.Graph{
		graph.Mesh(40, 25),
		graph.RoadLike(30, 30, 0.4, 7),
		graph.BarabasiAlbert(2000, 6, 3),
		graph.FromEdges(1, nil), // single isolated node
	} {
		a := &Artifact{Meta: Meta{GraphName: "g"}, Graph: g}
		got := roundTrip(t, a)
		if got.Oracle != nil {
			t.Fatal("oracle materialized out of nowhere")
		}
		wantX, wantA := g.CSR()
		gotX, gotA := got.Graph.CSR()
		if !slices.Equal(wantX, gotX) || !slices.Equal(wantA, gotA) {
			t.Fatalf("CSR mismatch after round trip (n=%d)", g.NumNodes())
		}
		if err := got.Graph.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

// Oracle round-trip: the decoded oracle must hold the original's tables
// cell for cell — the file stores the cells the oracle serves from —
// answer exactly like it on sampled pairs (both the upper-bound and
// lower-bound query), and re-encode to the very same bytes; the metadata
// must survive.
func TestOracleRoundTrip(t *testing.T) {
	g := graph.RoadLike(40, 40, 0.4, 11)
	a := buildArtifact(t, g, 3, 99)
	got := roundTrip(t, a)
	if !bytes.Equal(encode(t, got), encode(t, a)) {
		t.Fatal("decoded artifact re-encodes to different bytes")
	}

	if got.Meta != a.Meta {
		t.Fatalf("meta %+v want %+v", got.Meta, a.Meta)
	}
	if got.Oracle == nil {
		t.Fatal("oracle lost in round trip")
	}
	if got.Oracle.NumClusters() != a.Oracle.NumClusters() {
		t.Fatalf("clusters %d want %d", got.Oracle.NumClusters(), a.Oracle.NumClusters())
	}
	wantAPSP, wantHops := a.Oracle.Tables()
	gotAPSP, gotHops := got.Oracle.Tables()
	if !slices.Equal(gotAPSP, wantAPSP) || !slices.Equal(gotHops, wantHops) {
		t.Fatal("oracle tables differ after round trip")
	}
	r := rng.New(5)
	n := g.NumNodes()
	for i := 0; i < 500; i++ {
		u := graph.NodeID(r.Intn(n))
		v := graph.NodeID(r.Intn(n))
		if w, got := a.Oracle.Query(u, v), got.Oracle.Query(u, v); got != w {
			t.Fatalf("Query(%d,%d) = %d want %d", u, v, got, w)
		}
		if w, got := a.Oracle.LowerQuery(u, v), got.Oracle.LowerQuery(u, v); got != w {
			t.Fatalf("LowerQuery(%d,%d) = %d want %d", u, v, got, w)
		}
	}
	// The decoded clustering must satisfy the full decomposition invariants
	// and carry the build's BSP cost counters unchanged (including the
	// direction-optimizing engine's pull-round share).
	if err := got.Oracle.Clustering().Validate(); err != nil {
		t.Fatal(err)
	}
	if got.Oracle.Clustering().Stats != a.Oracle.Clustering().Stats {
		t.Fatalf("stats %+v want %+v", got.Oracle.Clustering().Stats, a.Oracle.Clustering().Stats)
	}
}

// A disconnected graph exercises InfDist entries in the persisted tables.
func TestRoundTripDisconnected(t *testing.T) {
	edges := [][2]graph.NodeID{{0, 1}, {1, 2}, {3, 4}}
	g := graph.FromEdges(5, edges)
	a := buildArtifact(t, g, 1, 1)
	got := roundTrip(t, a)
	if d := got.Oracle.Query(0, 3); d != graph.InfDist {
		t.Fatalf("cross-component query %d want InfDist", d)
	}
	if d := got.Oracle.Query(0, 2); d == graph.InfDist {
		t.Fatal("same-component query unreachable")
	}
}

// Every truncation point must produce an error, never a silent partial
// artifact.
func TestTruncation(t *testing.T) {
	g := graph.Mesh(12, 12)
	a := buildArtifact(t, g, 1, 2)
	var buf bytes.Buffer
	if err := Write(&buf, a); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Check a spread of prefixes including "everything but the trailer".
	for _, cut := range []int{0, 1, 3, 7, 20, len(full) / 2, len(full) - 5, len(full) - 1} {
		if _, err := Read(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncation at %d/%d decoded successfully", cut, len(full))
		}
	}
}

// Any single bit flip must be caught — by a structural check or, at the
// latest, by the checksum.
func TestCorruption(t *testing.T) {
	g := graph.Mesh(12, 12)
	a := buildArtifact(t, g, 1, 2)
	var buf bytes.Buffer
	if err := Write(&buf, a); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	r := rng.New(77)
	flips := 0
	for i := 0; i < 200; i++ {
		pos := r.Intn(len(full))
		bit := byte(1) << uint(r.Intn(8))
		mut := append([]byte(nil), full...)
		mut[pos] ^= bit
		if _, err := Read(bytes.NewReader(mut)); err == nil {
			t.Fatalf("bit flip at byte %d (mask %02x) decoded successfully", pos, bit)
		} else {
			flips++
			_ = err
		}
	}
	if flips != 200 {
		t.Fatalf("only %d/200 corruptions detected", flips)
	}
}

// Corrupting a payload byte while keeping structure valid must surface
// ErrChecksum specifically (the seed byte of the meta section is pure
// payload: no structural check can catch it).
func TestChecksumErrIsWrapped(t *testing.T) {
	g := graph.Mesh(8, 8)
	a := &Artifact{Meta: Meta{GraphName: "g", Seed: 42}, Graph: g}
	var buf bytes.Buffer
	if err := Write(&buf, a); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Layout: magic(4) version(2) flags(2) nameLen(4) name(1) algoLen(4)
	// tau(8) → seed starts at offset 25.
	full[25] ^= 0x01
	_, err := Read(bytes.NewReader(full))
	if !errors.Is(err, ErrChecksum) {
		t.Fatalf("err = %v, want ErrChecksum", err)
	}
}

func TestBadMagicAndVersion(t *testing.T) {
	g := graph.Mesh(4, 4)
	var buf bytes.Buffer
	if err := Write(&buf, &Artifact{Graph: g}); err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), buf.Bytes()...)
	bad[0] = 'X'
	if _, err := Read(bytes.NewReader(bad)); err == nil {
		t.Fatal("bad magic accepted")
	}
	// Any other version — a future one, the v3 this build's predecessor wrote
	// (square tables) or the v2 before it (wide cells); there is no reader for
	// either — is refused by the version check itself, before a byte of
	// payload is interpreted.
	for _, version := range []byte{0xFF, 2, 3} {
		bad = append([]byte(nil), buf.Bytes()...)
		bad[4] = version
		if _, err := Read(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "unsupported version") {
			t.Fatalf("version %d: err = %v, want the version error", version, err)
		}
	}
	if _, err := Read(bytes.NewReader(nil)); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("empty input: err = %v, want ErrUnexpectedEOF", err)
	}
}

func TestWriteRejectsForeignOracle(t *testing.T) {
	g1 := graph.Mesh(10, 10)
	g2 := graph.Mesh(10, 10)
	o, err := core.BuildOracle(context.Background(), g1, 1, false, core.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, &Artifact{Graph: g2, Oracle: o}); err == nil {
		t.Fatal("oracle over a different graph accepted")
	}
}

func TestWriteRejectsEmptyGraph(t *testing.T) {
	var buf bytes.Buffer
	g, err := graph.FromCSR(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := Write(&buf, &Artifact{Graph: g}); err == nil {
		t.Fatal("empty graph accepted (Read could never decode it)")
	}
}

func TestSaveLoad(t *testing.T) {
	g := graph.RoadLike(25, 25, 0.4, 3)
	a := buildArtifact(t, g, 2, 8)
	path := filepath.Join(t.TempDir(), "a.snap")
	if err := Save(path, a); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Meta != a.Meta {
		t.Fatalf("meta %+v want %+v", got.Meta, a.Meta)
	}
	r := rng.New(1)
	for i := 0; i < 100; i++ {
		u := graph.NodeID(r.Intn(g.NumNodes()))
		v := graph.NodeID(r.Intn(g.NumNodes()))
		if got.Oracle.Query(u, v) != a.Oracle.Query(u, v) {
			t.Fatalf("Query(%d,%d) differs after Save/Load", u, v)
		}
	}
}

// Load knows how many bytes the file has left, so a count they cannot hold is
// refused before anything is allocated for it: here a header claiming 2³¹
// clusters (the largest count the field's own bound admits), which on a
// stream of unknown length would cost a first chunk of 4 MiB before the
// input ran dry. The same file with its true count loads, into tables equal
// to the ones Read decodes by chunked growth.
func TestLoadRefusesCountBeyondFileSize(t *testing.T) {
	g := graph.Mesh(12, 12)
	a := buildArtifact(t, g, 1, 2)
	full := encode(t, a)
	path := filepath.Join(t.TempDir(), "snap.bin")
	if err := os.WriteFile(path, full, 0o644); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	wantAPSP, wantHops := roundTrip(t, a).Oracle.Tables()
	if gotAPSP, gotHops := loaded.Oracle.Tables(); !slices.Equal(gotAPSP, wantAPSP) || !slices.Equal(gotHops, wantHops) {
		t.Fatal("Load and Read decode different tables from the same bytes")
	}

	// magic, version, flags; two length-prefixed strings; tau, seed, n,
	// arcs; xadj, adj; owner, dist — then the cluster count.
	n, arcs := g.NumNodes(), g.NumArcs()
	kAt := 8 + 4 + len(a.Meta.GraphName) + 4 + len(a.Meta.Algorithm) + 8 + 8 + 8 + 8 + 8*(n+1) + 4*arcs + 4*n + 4*n
	if got := binary.LittleEndian.Uint64(full[kAt:]); got != uint64(a.Oracle.NumClusters()) {
		t.Fatalf("cluster count expected at byte %d, found %d there", kAt, got)
	}
	binary.LittleEndian.PutUint64(full[kAt:], 1<<31)
	if err := os.WriteFile(path, full, 0o644); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = Load(path)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "announced") {
		t.Fatalf("Load of a header claiming 2³¹ clusters: err = %v, want the implausible-count error", err)
	}
	// The 1 MiB read buffer and the graph's own arrays are all it may cost.
	if got := after.TotalAlloc - before.TotalAlloc; got > 2<<20 {
		t.Fatalf("refusing the count allocated %d bytes", got)
	}
}

// listTempFiles returns the .snapshot-* temp files in dir — Save's
// private scratch names, which must never outlive a Save call.
func listTempFiles(t *testing.T, dir string) []string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, ".snapshot-*"))
	if err != nil {
		t.Fatal(err)
	}
	return matches
}

// TestSaveFailureLeavesTargetIntact is the truncation-mid-write
// regression test: a Save that fails partway (here: the final rename,
// forced by planting a directory at the target path) must leave the
// previous snapshot byte-identical and loadable, and must not leave a
// temp file behind. This is the property a snapshot-only restart after
// a crashed -drain shutdown depends on.
func TestSaveFailureLeavesTargetIntact(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snap.bin")
	g := graph.Mesh(12, 12)
	if err := Save(path, buildArtifact(t, g, 1, 2)); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// A directory squatting on a second target path makes the rename
	// fail after the temp file was fully written — the latest failure
	// point Save has.
	blocked := filepath.Join(dir, "blocked.bin")
	if err := os.MkdirAll(filepath.Join(blocked, "x"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := Save(blocked, buildArtifact(t, g, 1, 3)); err == nil {
		t.Fatal("Save onto a directory succeeded")
	}
	if tmps := listTempFiles(t, dir); len(tmps) != 0 {
		t.Fatalf("failed Save left temp files behind: %v", tmps)
	}

	// The original snapshot is untouched and still loads.
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("failed Save mutated an unrelated existing snapshot")
	}
	if _, err := Load(path); err != nil {
		t.Fatalf("snapshot unloadable after failed Save: %v", err)
	}
}

// TestSaveOverwriteAtomic: overwriting an existing snapshot goes through
// the same temp+rename path — afterwards the file is entirely the new
// artifact (never a splice of old and new) and no scratch remains.
func TestSaveOverwriteAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snap.bin")
	g := graph.Mesh(12, 12)
	if err := Save(path, buildArtifact(t, g, 1, 2)); err != nil {
		t.Fatal(err)
	}
	if err := Save(path, buildArtifact(t, g, 2, 9)); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Meta.Tau != 2 || got.Meta.Seed != 9 {
		t.Fatalf("loaded meta %+v, want the overwriting artifact", got.Meta)
	}
	if tmps := listTempFiles(t, dir); len(tmps) != 0 {
		t.Fatalf("successful Save left temp files behind: %v", tmps)
	}
}

// TestLoadTruncatedFile exercises the on-disk half of the truncation
// story: however a file at the snapshot path got cut short (the exact
// artifact a non-atomic writer would leave after a crash), Load must
// fail cleanly rather than hand back a half-decoded artifact.
func TestLoadTruncatedFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snap.bin")
	g := graph.Mesh(12, 12)
	if err := Save(path, buildArtifact(t, g, 1, 2)); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cutPath := filepath.Join(dir, "cut.bin")
	for _, cut := range []int{0, 16, len(full) / 3, len(full) - 4, len(full) - 1} {
		if err := os.WriteFile(cutPath, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(cutPath); err == nil {
			t.Fatalf("Load of file truncated at %d/%d succeeded", cut, len(full))
		}
	}
}
