package graph

import (
	"bufio"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// Edge-list I/O. The text format is one edge per line, "u v", with '#'
// comment lines permitted (the format used by the SNAP datasets the paper
// draws from). Node ids must be non-negative integers; the node count is
// max id + 1 unless a larger count is given via a "# nodes: N" header.

// maxNodes is the most nodes a graph can hold: NodeID is an int32.
const maxNodes = 1 << 31

// WriteEdgeList writes g in text edge-list format.
func WriteEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := fmt.Fprintf(bw, "# nodes: %d edges: %d\n", g.NumNodes(), g.NumEdges()); err != nil {
		return err
	}
	var werr error
	g.Edges(func(u, v NodeID) bool {
		if _, err := fmt.Fprintf(bw, "%d %d\n", u, v); err != nil {
			werr = err
			return false
		}
		return true
	})
	if werr != nil {
		return werr
	}
	return bw.Flush()
}

// ReadEdgeList parses a text edge list. Lines starting with '#' are
// comments, except that a "# nodes: N" header fixes the node count,
// whatever follows N. A count above 2³¹, more nodes than NodeIDs can
// address, is an error.
func ReadEdgeList(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
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
		return nil, err
	}
	return b.Build(), nil
}

// SaveEdgeList writes g to the named file.
func SaveEdgeList(path string, g *Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteEdgeList(f, g); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadEdgeList reads a graph from the named file. Gzip-compressed files
// (as the SNAP datasets are distributed) are decompressed transparently;
// compression is detected from the gzip magic bytes, not the file name, so
// a misnamed .txt works too.
func LoadEdgeList(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<20)
	if magic, err := br.Peek(2); err == nil && magic[0] == 0x1f && magic[1] == 0x8b {
		zr, err := gzip.NewReader(br)
		if err != nil {
			return nil, fmt.Errorf("graph: %s: %w", path, err)
		}
		defer zr.Close()
		return ReadEdgeList(zr)
	}
	return ReadEdgeList(br)
}
