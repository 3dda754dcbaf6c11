package graph

import (
	"bytes"
	"fmt"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// FuzzReadEdgeList drives arbitrary text through the edge-list parser, the
// decoder every -graph file reaches. Contract: never panic, and whatever is
// accepted is what the text says — as many nodes as the largest id + 1 or
// the largest "# nodes:" count, whichever is more; exactly the edges of its
// non-loop lines; and a graph that WriteEdgeList → ReadEdgeList reproduces
// array for array.
//
// Ordinary test runs replay the seeds below; CI adds 30 s of fresh
// coverage-guided input with
// go test -run '^$' -fuzz FuzzReadEdgeList -fuzztime 30s ./internal/graph.
func FuzzReadEdgeList(f *testing.F) {
	digitRuns := regexp.MustCompile(`[0-9]+`)
	for _, in := range []string{
		"# a comment\n0 1\n\n# another\n1 2\n",
		"# nodes: 10 edges: 1\n0 1\n",
		"# nodes: 5\n0 1\n",
		"# nodes: 7, undirected\n",
		"0 1\r\n1 2\r\n\r\n",
		"  3\t4  \n",
		"0 1 17 extra fields\n",
		"2 2\n0 1\n1 0\n0 1\n",
		"-1 2\n",
		"0 -0\n+3 1\n",
		"0 4294967296\n",
		"1 99999999999\n",
		"# nodes: 3000000000 edges: 0\n",
		"# nodes: 99999999999999999999\n",
		"0\n",
		"a b\n",
		"",
	} {
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, in string) {
		// Dense ids cost max id + 1 words by design, so an input that may
		// name a seven-digit id or node count is a memory test, not a parser
		// test. Longer runs past 2³¹ stay: the parser must refuse them.
		for _, run := range digitRuns.FindAllString(in, -1) {
			if n, err := strconv.ParseUint(run, 10, 64); len(run) > 6 && err == nil && n <= maxNodes {
				t.Skip("digit run longer than 6")
			}
		}
		g, err := ReadEdgeList(strings.NewReader(in))
		if err != nil {
			return // rejected cleanly
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("accepted %q as an invalid graph: %v", in, err)
		}

		// What the text says, read line by line.
		wantN := 0
		pairs := map[[2]NodeID]bool{}
		for _, line := range strings.Split(in, "\n") {
			line = strings.TrimSpace(line)
			if strings.HasPrefix(line, "#") {
				var n int
				if _, err := fmt.Sscanf(line, "# nodes: %d", &n); err == nil {
					wantN = max(wantN, n)
				}
				continue
			}
			fields := strings.Fields(line)
			if len(fields) == 0 {
				continue
			}
			if len(fields) < 2 {
				t.Fatalf("accepted %q with the edge line %q", in, line)
			}
			u, errU := strconv.ParseInt(fields[0], 10, 32)
			v, errV := strconv.ParseInt(fields[1], 10, 32)
			if errU != nil || errV != nil || u < 0 || v < 0 {
				t.Fatalf("accepted %q with the edge line %q", in, line)
			}
			wantN = max(wantN, int(u)+1, int(v)+1)
			if u != v {
				pairs[[2]NodeID{NodeID(min(u, v)), NodeID(max(u, v))}] = true
			}
		}
		if g.NumNodes() != wantN {
			t.Fatalf("%q: %d nodes, the text says %d", in, g.NumNodes(), wantN)
		}
		for p := range pairs {
			if !g.HasEdge(p[0], p[1]) {
				t.Fatalf("%q: edge %v missing", in, p)
			}
		}
		if g.NumEdges() != len(pairs) {
			t.Fatalf("%q: %d edges, the text has %d distinct non-loop pairs", in, g.NumEdges(), len(pairs))
		}

		var buf bytes.Buffer
		if err := WriteEdgeList(&buf, g); err != nil {
			t.Fatal(err)
		}
		g2, err := ReadEdgeList(&buf)
		if err != nil {
			t.Fatalf("%q: re-reading the written list: %v", in, err)
		}
		if !slices.Equal(g.xadj, g2.xadj) || !slices.Equal(g.adj, g2.adj) {
			t.Fatalf("%q: WriteEdgeList → ReadEdgeList changed the CSR arrays", in)
		}
	})
}
