package graph

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"testing"
	"testing/iotest"
)

func TestEdgeListWriteReadRoundTrip(t *testing.T) {
	g := BarabasiAlbert(300, 3, 6)
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumNodes() != g.NumNodes() || g2.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip: n=%d->%d m=%d->%d",
			g.NumNodes(), g2.NumNodes(), g.NumEdges(), g2.NumEdges())
	}
	for u := NodeID(0); u < NodeID(g.NumNodes()); u++ {
		if g.Degree(u) != g2.Degree(u) {
			t.Fatalf("degree mismatch at %d", u)
		}
	}
}

func TestReadEdgeListComments(t *testing.T) {
	in := "# a comment\n0 1\n\n# another\n1 2\n"
	g, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 3 || g.NumEdges() != 2 {
		t.Fatalf("n=%d m=%d", g.NumNodes(), g.NumEdges())
	}
}

// The "# nodes: N" header fixes the node count whatever follows N, so
// isolated nodes past the largest id are preserved.
func TestReadEdgeListHeaderFixesNodeCount(t *testing.T) {
	for _, tc := range []struct {
		in string
		n  int
	}{
		{"# nodes: 10 edges: 1\n0 1\n", 10},
		{"# nodes: 5\n0 1\n", 5},
		{"# nodes: 7, undirected\n0 1\n", 7},
		{"# nodes: 1 edges: 1\n0 3\n", 4}, // a smaller count never drops an id
	} {
		g, err := ReadEdgeList(strings.NewReader(tc.in))
		if err != nil {
			t.Fatalf("%q: %v", tc.in, err)
		}
		if g.NumNodes() != tc.n {
			t.Fatalf("%q: n=%d want %d", tc.in, g.NumNodes(), tc.n)
		}
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	for _, tc := range []struct{ in, msg string }{
		{"0\n", "line 1"},
		{"a b\n", "line 1"},
		{"-1 2\n", "line 1"},
		// A count NodeIDs cannot address is refused before anything is
		// sized by it (2³¹ + 1, 3·10⁹, and past int64).
		{"# c\n# nodes: 2147483649\n", "line 2"},
		{"# nodes: 3000000000 edges: 0\n", "line 1"},
		{"0 1\n# nodes: 99999999999999999999\n", "line 2"},
		{"2147483648 0\n", "line 1"},
		{"0 1\n1 -2147483648\n", "line 2"},
		{"2147483647 -1\n", "line 1"},
		{"1 2\n2\x003\n", "line 2"},
		// A line of 1 MiB or more, its "\n" not counted, with or without one.
		{"0 1\n" + strings.Repeat(" ", 1<<20) + "\n", "line 2"},
		{"0 1\n\n" + strings.Repeat("7", 1<<20), "line 3"},
	} {
		_, err := ReadEdgeList(strings.NewReader(tc.in))
		if err == nil || !strings.Contains(err.Error(), tc.msg) {
			t.Fatalf("input %q: err = %v, want an error naming %s", tc.in, err, tc.msg)
		}
	}
}

// A read error is reported as itself, on the line it cuts short, and
// that partial line is not parsed: "12" is a truncated edge, not a
// malformed one. The reference parser agrees.
func TestReadEdgeListTruncatedInput(t *testing.T) {
	for name, read := range map[string]func(io.Reader) (*Graph, error){
		"ReadEdgeList": ReadEdgeList, "reference": referenceReadEdgeList,
	} {
		r := io.MultiReader(strings.NewReader("0 1\n2 3\n12"), iotest.ErrReader(io.ErrUnexpectedEOF))
		_, err := read(r)
		if !errors.Is(err, io.ErrUnexpectedEOF) || !strings.Contains(err.Error(), "line 3:") {
			t.Fatalf("%s: err = %v, want io.ErrUnexpectedEOF on line 3", name, err)
		}
	}

	// A gzip file cut short, in its body or in its trailer.
	var plain bytes.Buffer
	if err := WriteEdgeList(&plain, RoadLike(60, 60, 0.4, 1)); err != nil {
		t.Fatal(err)
	}
	packed := gzipped(t, plain.Bytes())
	path := filepath.Join(t.TempDir(), "cut.gz")
	for _, cut := range []int{1000, 5000, len(packed) / 2, len(packed) - 1} {
		if err := os.WriteFile(path, packed[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := LoadEdgeList(path)
		if !errors.Is(err, io.ErrUnexpectedEOF) || !strings.Contains(err.Error(), "line ") {
			t.Fatalf("gzip of %d bytes cut at %d: err = %v, want io.ErrUnexpectedEOF on a named line", len(packed), cut, err)
		}
		zr, err := gzip.NewReader(bytes.NewReader(packed[:cut]))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := referenceReadEdgeList(zr); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("reference, gzip cut at %d: err = %v, want io.ErrUnexpectedEOF", cut, err)
		}
	}
}

// The accept set of the format comment in io.go, one case at a time.
func TestReadEdgeListAcceptSet(t *testing.T) {
	pad := strings.Repeat(" ", maxLine-len("0 1")-1) // the longest line
	for _, tc := range []struct {
		in    string
		n     int
		edges [][2]NodeID
	}{
		{"0 1\r\n\r\n1 2\r\n", 3, [][2]NodeID{{0, 1}, {1, 2}}},
		{"0 1 17 extra fields\n", 2, [][2]NodeID{{0, 1}}},
		{"+3 -0\n", 4, [][2]NodeID{{0, 3}}},
		{"007 0010\n", 11, [][2]NodeID{{7, 10}}},
		{"1\u00a02\n2\u00853\n3\v4\n\t4\f5\r\n", 6, [][2]NodeID{{1, 2}, {2, 3}, {3, 4}, {4, 5}}},
		{"# nodes: 9 edges: 1000000000000\n0 1\n", 9, [][2]NodeID{{0, 1}}},
		{"# nodes: 9 edges: 0\n0 1\n1 2\n", 9, [][2]NodeID{{0, 1}, {1, 2}}},
		{"0 1\n1 2", 3, [][2]NodeID{{0, 1}, {1, 2}}},
		{"0 1" + pad + "\n2 1\n", 3, [][2]NodeID{{0, 1}, {1, 2}}},
		{"0 1" + pad, 2, [][2]NodeID{{0, 1}}},
	} {
		g, err := ReadEdgeList(strings.NewReader(tc.in))
		if err != nil {
			t.Fatalf("%.40q: %v", tc.in, err)
		}
		want := FromEdges(tc.n, tc.edges)
		if !slices.Equal(g.xadj, want.xadj) || !slices.Equal(g.adj, want.adj) {
			t.Fatalf("%.40q: n=%d m=%d, want n=%d edges %v", tc.in, g.NumNodes(), g.NumEdges(), tc.n, tc.edges)
		}
	}
}

// WriteEdgeList appends digits into its write buffer instead of calling
// fmt per edge; the bytes must be those of the fmt form, including across
// the 1 MiB buffer's boundaries.
func TestWriteEdgeListMatchesFmt(t *testing.T) {
	for _, g := range []*Graph{Mesh(30, 20), ErdosRenyi(500, 2000, 3), RMAT(14, 8, 5), NewBuilder(0).Build(), NewBuilder(5).Build()} {
		var want, got bytes.Buffer
		fmt.Fprintf(&want, "# nodes: %d edges: %d\n", g.NumNodes(), g.NumEdges())
		g.Edges(func(u, v NodeID) bool {
			fmt.Fprintf(&want, "%d %d\n", u, v)
			return true
		})
		if err := WriteEdgeList(&got, g); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("n=%d m=%d: WriteEdgeList wrote %d bytes unlike the fmt form's %d", g.NumNodes(), g.NumEdges(), got.Len(), want.Len())
		}
	}
}

// A header-carrying file is read with one pairs array, sized by the
// header and sorted where it is: beside the graph it returns (xadj, 8
// bytes a node; adj, 8 bytes an edge) LoadEdgeList may allocate the pairs
// (8 bytes an edge), fillCSR's cursor (8 bytes a node), its 1 MiB read
// buffer and a small constant. Pairs grown by append, or sorted in a copy,
// fail it.
func TestLoadEdgeListAllocatesPairsOnce(t *testing.T) {
	path := edgeListFile(t, RMAT(16, 8, 2))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	g, err := LoadEdgeList(path)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	n, m := uint64(g.NumNodes()), uint64(g.NumEdges())
	bound := 8*m + 8*(n+1) + 8*m + 8*n + maxLine + 256<<10
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("n=%d m=%d: %d bytes allocated, bound %d", n, m, got, bound)
	if got > bound {
		t.Fatalf("reading %d edges allocated %d bytes, want <= pairs + CSR + read buffer + 256 KiB = %d", m, got, bound)
	}
}

// The per-line path allocates nothing: a hundred times the lines is the
// same number of allocations. The collector is off while it counts, since
// a collection empties the pool the header's fmt.Sscanf draws on. Under
// the race detector that pool drops a quarter of what it is given on
// purpose, so there the two counts may differ by a few.
func TestLoadEdgeListAllocsDoNotGrowWithLines(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	slack := 0.0
	if bi, ok := debug.ReadBuildInfo(); ok && slices.Contains(bi.Settings, debug.BuildSetting{Key: "-race", Value: "true"}) {
		slack = 3
	}
	allocs := func(g *Graph) float64 {
		path := edgeListFile(t, g)
		return testing.AllocsPerRun(5, func() {
			if _, err := LoadEdgeList(path); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(Mesh(25, 21)), allocs(Mesh(250, 201)) // 1,004 and 100,049 edges
	if math.Abs(small-large) > slack {
		t.Fatalf("%v allocations for 1,004 lines, %v for 100,049", small, large)
	}
}

// The "edges:" count is untrusted. A header claiming 10¹² edges reserves
// at most what the bytes left could hold in a plain file, and hintCap
// pairs where their count is unknown (a reader, a gzip file): under 1 MB
// more than an honest "edges: 0" header costs. A file of such headers,
// the same lie repeated or a count rising line by line, reserves once, so
// it costs that plus a small multiple of its length, not a reservation a
// line.
func TestReadEdgeListEdgeHintIsBounded(t *testing.T) {
	var repeated, rising strings.Builder
	for i := range 10000 {
		repeated.WriteString("# nodes: 2 edges: 999999999999\n")
		fmt.Fprintf(&rising, "# nodes: 2 edges: %d\n", i+1)
	}
	base := edgeHintAllocs(t, "# nodes: 2 edges: 0\n")
	for _, in := range []string{"# nodes: 2 edges: 999999999999\n", repeated.String(), rising.String()} {
		bound := uint64(1<<20 + 16*len(in))
		for way, got := range edgeHintAllocs(t, in) {
			t.Logf("%s, %d bytes: %d allocated beyond the honest header's %d", way, len(in), got-base[way], base[way])
			if got > base[way]+bound {
				t.Fatalf("%s: %d bytes of lying headers allocated %d bytes, %d more than an honest header; want <= %d",
					way, len(in), got, got-base[way], bound)
			}
		}
	}
}

// edgeHintAllocs returns the bytes allocated reading in, a list of nodes 0
// and 1 and no edges, through a reader, a plain file and a gzip file.
func edgeHintAllocs(t *testing.T, in string) map[string]uint64 {
	dir := t.TempDir()
	plain, gz := filepath.Join(dir, "plain.txt"), filepath.Join(dir, "packed.gz")
	if err := os.WriteFile(plain, []byte(in), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(gz, gzipped(t, []byte(in)), 0o644); err != nil {
		t.Fatal(err)
	}
	allocs := map[string]uint64{}
	for way, read := range map[string]func() (*Graph, error){
		"reader":     func() (*Graph, error) { return ReadEdgeList(strings.NewReader(in)) },
		"plain file": func() (*Graph, error) { return LoadEdgeList(plain) },
		"gzip file":  func() (*Graph, error) { return LoadEdgeList(gz) },
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		g, err := read()
		runtime.ReadMemStats(&after)
		if err != nil || g.NumNodes() != 2 || g.NumEdges() != 0 {
			t.Fatalf("%s: %v", way, err)
		}
		allocs[way] = after.TotalAlloc - before.TotalAlloc
	}
	return allocs
}

// gzipped returns b gzip-compressed.
func gzipped(t testing.TB, b []byte) []byte {
	t.Helper()
	var packed bytes.Buffer
	zw := gzip.NewWriter(&packed)
	if _, err := zw.Write(b); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return packed.Bytes()
}

// edgeListFile saves g in a temporary file and returns its path.
func edgeListFile(t testing.TB, g *Graph) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.txt")
	if err := SaveEdgeList(path, g); err != nil {
		t.Fatal(err)
	}
	return path
}

// BenchmarkReadEdgeList reads a header-carrying RMAT list from a file, as
// the daemon's -graph does, so the header sizes the pairs.
func BenchmarkReadEdgeList(b *testing.B) {
	path := edgeListFile(b, RMAT(16, 8, 1))
	fi, err := os.Stat(path)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(fi.Size())
	b.ReportAllocs()
	for b.Loop() {
		if _, err := LoadEdgeList(path); err != nil {
			b.Fatal(err)
		}
	}
}

func TestSaveLoadEdgeList(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.txt")
	g := Mesh(9, 4)
	if err := SaveEdgeList(path, g); err != nil {
		t.Fatal(err)
	}
	g2, err := LoadEdgeList(path)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumNodes() != g.NumNodes() || g2.NumEdges() != g.NumEdges() {
		t.Fatal("save/load mismatch")
	}
}

func TestLoadEdgeListGzip(t *testing.T) {
	g := Mesh(8, 5)
	var plain bytes.Buffer
	if err := WriteEdgeList(&plain, g); err != nil {
		t.Fatal(err)
	}
	packed := gzipped(t, plain.Bytes())
	// Detection is by magic bytes, so both a .gz name and a misnamed .txt
	// must decompress.
	for _, name := range []string{"g.txt.gz", "mislabeled.txt"} {
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, packed, 0o644); err != nil {
			t.Fatal(err)
		}
		g2, err := LoadEdgeList(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if g2.NumNodes() != g.NumNodes() || g2.NumEdges() != g.NumEdges() {
			t.Fatalf("%s: gzip round trip mismatch", name)
		}
	}
}

func TestLoadEdgeListCorruptGzip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.gz")
	// Gzip magic followed by garbage must surface an error, not parse as
	// a text edge list.
	if err := os.WriteFile(path, []byte{0x1f, 0x8b, 0xff, 0x00, 0x01}, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadEdgeList(path); err == nil {
		t.Fatal("corrupt gzip should fail")
	}
}

func TestLoadEdgeListMissingFile(t *testing.T) {
	if _, err := LoadEdgeList(filepath.Join(t.TempDir(), "missing.txt")); err == nil {
		t.Fatal("expected error for missing file")
	}
}

func TestSummarize(t *testing.T) {
	g := Star(11)
	s := Summarize(g)
	if s.Nodes != 11 || s.Edges != 10 || s.MaxDegree != 10 || s.MinDegree != 1 || s.Components != 1 {
		t.Fatalf("stats: %+v", s)
	}
	if s.AvgDegree < 1.8 || s.AvgDegree > 1.82 {
		t.Fatalf("avg degree %v", s.AvgDegree)
	}
	if !strings.Contains(s.String(), "n=11") {
		t.Fatal("String() missing node count")
	}
}
