package graph

import (
	"bytes"
	"compress/gzip"
	"os"
	"path/filepath"
	"strings"
	"testing"
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
	} {
		_, err := ReadEdgeList(strings.NewReader(tc.in))
		if err == nil || !strings.Contains(err.Error(), tc.msg) {
			t.Fatalf("input %q: err = %v, want an error naming %s", tc.in, err, tc.msg)
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
	var packed bytes.Buffer
	zw := gzip.NewWriter(&packed)
	if _, err := zw.Write(plain.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	// Detection is by magic bytes, so both a .gz name and a misnamed .txt
	// must decompress.
	for _, name := range []string{"g.txt.gz", "mislabeled.txt"} {
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, packed.Bytes(), 0o644); err != nil {
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
