package graph

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/rng"
)

// referenceReadEdgeList is the line-at-a-time parser ReadEdgeList's byte
// scanner replaced, kept as the definition of the accept set:
// bufio.Scanner lines, strings.TrimSpace, strings.Fields and
// strconv.ParseInt. Its one known difference is a line of 1 MiB or more,
// which it refuses with a bare "token too long" and no line number. A read
// error other than io.EOF fails the line it cuts short, which is not
// parsed.
func referenceReadEdgeList(r io.Reader) (*Graph, error) {
	src := &failedRead{r: r}
	sc := bufio.NewScanner(src)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	sc.Split(func(data []byte, atEOF bool) (int, []byte, error) {
		if atEOF && src.err != nil && bytes.IndexByte(data, '\n') < 0 {
			return 0, nil, src.err // the partial line before the error
		}
		return bufio.ScanLines(data, atEOF)
	})
	b := NewBuilder(0)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			var n int64
			_, err := fmt.Sscanf(line, "# nodes: %d", &n)
			if (err == nil && n > maxNodes) || errors.Is(err, strconv.ErrRange) {
				return nil, fmt.Errorf("graph: line %d: node count out of range (at most %d)", lineNo, maxNodes)
			}
			if err == nil {
				b.Grow(int(n))
			}
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("graph: line %d: want 'u v', got %q", lineNo, line)
		}
		u, err := strconv.ParseInt(fields[0], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: %v", lineNo, err)
		}
		v, err := strconv.ParseInt(fields[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: %v", lineNo, err)
		}
		if u < 0 || v < 0 {
			return nil, fmt.Errorf("graph: line %d: negative node id", lineNo)
		}
		hi := int(u) + 1
		if int(v)+1 > hi {
			hi = int(v) + 1
		}
		b.Grow(hi)
		b.AddEdge(NodeID(u), NodeID(v))
	}
	if err := sc.Err(); err != nil {
		if src.err != nil {
			return nil, fmt.Errorf("graph: line %d: %w", lineNo+1, err)
		}
		return nil, err
	}
	return b.Build(), nil
}

// failedRead records the read error, other than io.EOF, that ends r.
type failedRead struct {
	r   io.Reader
	err error
}

func (f *failedRead) Read(p []byte) (int, error) {
	n, err := f.r.Read(p)
	if err != nil && err != io.EOF {
		f.err = err
	}
	return n, err
}

var errLine = regexp.MustCompile(`line (\d+):`)

// FuzzReadEdgeList drives arbitrary text through the edge-list parser, the
// decoder every -graph file reaches. Contract: never panic; accept exactly
// what referenceReadEdgeList accepts, as the same CSR arrays, and reject
// what it rejects at the same line — read from memory and, with no length
// to bound the "edges:" hint, through gzip; and a graph that WriteEdgeList
// → ReadEdgeList reproduces array for array.
//
// Ordinary test runs replay the seeds below; CI adds 30 s of fresh
// coverage-guided input with
// go test -run '^$' -fuzz FuzzReadEdgeList -fuzztime 30s ./internal/graph.
func FuzzReadEdgeList(f *testing.F) {
	digitRuns := regexp.MustCompile(`-?[0-9]+`)
	for _, in := range []string{
		"# a comment\n0 1\n\n# another\n1 2\n",
		"# nodes: 10 edges: 1\n0 1\n",
		"# nodes: 5\n0 1\n",
		"# nodes: 7, undirected\n",
		"# nodes: 4 edges: 0\n0 1\n1 2\n2 3\n",
		"# nodes: 4 edges: 1000000000000\n0 1\n",
		"# nodes: 3 edges: -5\n0 2\n",
		"0 1\r\n1 2\r\n\r\n",
		"  3\t4  \n",
		"0 1 17 extra fields\n",
		"2 2\n0 1\n1 0\n0 1\n",
		"-1 2\n",
		"0 -0\n+3 1\n",
		"+7 2\n-0 7\n",
		"007 0010\n",
		"-2147483648 0\n",
		"0 -2147483649\n",
		"0 4294967296\n",
		"1 99999999999\n",
		"# nodes: 3000000000 edges: 0\n",
		"# nodes: 99999999999999999999\n",
		"1 2\n2\u00853\n3\v4\n4\f5\n",
		"\u00a01\u00a02\u00a0\n",
		"\u00a0 1 2\u00a0\n",
		"1 2\u00a0x\n",
		"1 \x002\n",
		"1\x00 2\n",
		"1 2\xa0\n",
		"0 1\n1 2",
		"0\n",
		"a b\n",
		"",
	} {
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, in string) {
		// Dense ids cost max id + 1 words by design, so an input that may
		// name a seven-digit id or node count is a memory test, not a parser
		// test. Longer runs past 2³¹ stay, and so do negative ones: the
		// parser must refuse them.
		for _, run := range digitRuns.FindAllString(in, -1) {
			if n, err := strconv.ParseUint(run, 10, 64); len(run) > 6 && err == nil && n <= maxNodes {
				t.Skip("digit run longer than 6")
			}
		}
		want, wantErr := referenceReadEdgeList(strings.NewReader(in))
		zr, err := gzip.NewReader(bytes.NewReader(gzipped(t, []byte(in))))
		if err != nil {
			t.Fatal(err)
		}
		var g *Graph
		for _, src := range []struct {
			name string
			r    io.Reader
		}{{"plain", strings.NewReader(in)}, {"gzip", zr}} {
			got, err := ReadEdgeList(src.r)
			switch {
			case (err == nil) != (wantErr == nil):
				t.Fatalf("%s %q: err = %v, the reference's %v", src.name, in, err, wantErr)
			case err != nil:
				if w := errLine.FindString(wantErr.Error()); w != "" && errLine.FindString(err.Error()) != w {
					t.Fatalf("%s %q: err = %v, the reference's %v", src.name, in, err, wantErr)
				}
			case !slices.Equal(got.xadj, want.xadj) || !slices.Equal(got.adj, want.adj):
				t.Fatalf("%s %q: CSR differs from the reference's", src.name, in)
			}
			g = got
		}
		if wantErr != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("accepted %q as an invalid graph: %v", in, err)
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

// The fuzzer's inputs fit in one read buffer; this one spans three, with
// every kind of line at random places, so lines straddle the buffer's end
// and the fast scan and slowLine take turns. It must read as the
// reference reads it, and an error on its last line must name that line.
func TestReadEdgeListMatchesReferenceAcrossBuffers(t *testing.T) {
	r := rng.New(5)
	forms := []string{"%d %d\n", "%d %d\r\n", "  %d\t%d  \n", "%d %d 9 extra\n", "+%d 00%d\n", "%d\u00a0%d\v\n", "# %d %d\n", "\n", "%d %d"}
	var in strings.Builder
	lines := 0
	for in.Len() < 3*maxLine {
		form := forms[0]
		if r.Intn(4) == 0 {
			form = forms[r.Intn(len(forms)-1)]
		}
		if strings.Contains(form, "%") {
			fmt.Fprintf(&in, form, r.Intn(5000), r.Intn(5000))
		} else {
			in.WriteString(form)
		}
		lines++
	}
	fmt.Fprintf(&in, forms[len(forms)-1], 1, 2) // no final newline
	want, err := referenceReadEdgeList(strings.NewReader(in.String()))
	if err != nil {
		t.Fatal(err)
	}
	g, err := ReadEdgeList(strings.NewReader(in.String()))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(g.xadj, want.xadj) || !slices.Equal(g.adj, want.adj) {
		t.Fatalf("%d lines: CSR differs from the reference's", lines+1)
	}
	in.WriteString("\n1 x\n")
	_, err = ReadEdgeList(strings.NewReader(in.String()))
	if wantLine := fmt.Sprintf("line %d:", lines+2); err == nil || !strings.Contains(err.Error(), wantLine) {
		t.Fatalf("bad last line: err = %v, want one naming %s", err, wantLine)
	}
}
