package graph

import (
	"bufio"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
)

// Edge-list I/O. The text format is one edge per line, "u v", the format
// used by the SNAP datasets the paper draws from. ReadEdgeList accepts
// exactly the following, and names the line of every rejection:
//
//   - Lines end in "\n" or "\r\n"; the last may lack its ending. A line of
//     1 MiB or more, its "\n" not counted, is an error.
//   - Whitespace is Unicode's (unicode.IsSpace): space, \t, \v, \f, \r,
//     U+0085, U+00A0 and the other Unicode spaces. It is trimmed from both
//     ends of a line and separates fields.
//   - A blank line is skipped.
//   - A line whose first non-space is '#' is a comment, except that a
//     "# nodes: N" header fixes the node count at N or more, whatever
//     follows N. A count above 2³¹, more nodes than NodeIDs can address, is
//     an error.
//   - Any other line is an edge: at least two fields, of which the first
//     two are decimal int32s, optionally signed ("+3", "-0" and "007" are
//     ids), and neither negative. Further fields are ignored.
//
// The node count is max id + 1 unless a header gives more. The
// "# nodes: N edges: M" header WriteEdgeList writes also sizes the edge
// buffer, but M is untrusted: LoadEdgeList bounds it by a plain file's
// size, and anything else by hintCap. Only the first header that
// reserves does so; later ones size nothing. The graph's adjacency is laid
// out inside that buffer (Builder.Build), so the graph keeps its capacity:
// exactly its edge lines for a header that counts them, as WriteEdgeList's
// does; append's slack for a list without one, or with one that
// undercounts. A header that overstates M more than twice over costs one
// copy of the pairs into an exact-size buffer, and the graph does not hold
// the reservation.

const (
	// maxNodes is the most nodes a graph can hold: NodeID is an int32.
	maxNodes = 1 << 31
	// maxLine is the length, its "\n" not counted, at which a line is
	// refused as too long. It is also the read buffer's size, so a line
	// that fills the buffer is that error.
	maxLine = 1 << 20
	// hintCap caps the edges an "edges:" count reserves (512 KB of pairs)
	// when the length of the input is unknown: a reader, or a gzip file.
	hintCap = 1 << 16
)

// WriteEdgeList writes g in text edge-list format, behind a
// "# nodes: N edges: M" header.
func WriteEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := fmt.Fprintf(bw, "# nodes: %d edges: %d\n", g.NumNodes(), g.NumEdges()); err != nil {
		return err
	}
	var werr error
	g.Edges(func(u, v NodeID) bool {
		line := strconv.AppendInt(bw.AvailableBuffer(), int64(u), 10)
		line = append(line, ' ')
		line = strconv.AppendInt(line, int64(v), 10)
		_, werr = bw.Write(append(line, '\n'))
		return werr == nil
	})
	if werr != nil {
		return werr
	}
	return bw.Flush()
}

// ReadEdgeList parses a text edge list in the format above.
func ReadEdgeList(r io.Reader) (*Graph, error) { return readEdgeList(r, hintCap) }

// edgeReader accumulates what the lines say: the pairs, and in n the
// larger of max id + 1 and the header's count.
type edgeReader struct {
	Builder
	maxHint int // most pairs an "edges:" count may reserve
}

// readEdgeList is ReadEdgeList with the header's edge hint capped at
// maxHint pairs. Every edge line is at least 4 bytes ("0 1\n"), so a
// caller that knows the bytes left can pass a quarter of them, plus one.
func readEdgeList(r io.Reader, maxHint int) (*Graph, error) {
	br := bufio.NewReaderSize(r, maxLine)
	er := edgeReader{maxHint: maxHint}
	for lineNo := 1; ; lineNo++ {
		line, err := br.ReadSlice('\n')
		switch err {
		case nil:
			line = line[:len(line)-1]
		case io.EOF, bufio.ErrBufferFull: // the last line; the full buffer, maxLine bytes
		default:
			// A read error cuts the line short: what came before it is
			// not a line to parse.
			return nil, fmt.Errorf("graph: line %d: %w", lineNo, err)
		}
		if len(line) >= maxLine {
			return nil, fmt.Errorf("graph: line %d: longer than %d bytes", lineNo, maxLine-1)
		}
		if u, v, ok := scanEdge(line); ok {
			er.add(u, v)
		} else if err := er.slowLine(line); err != nil {
			return nil, fmt.Errorf("graph: line %d: %w", lineNo, err)
		}
		if err == io.EOF {
			return er.Build(), nil
		}
	}
}

// add records the edge line "u v".
func (er *edgeReader) add(u, v NodeID) {
	er.n = max(er.n, int(u)+1, int(v)+1)
	if u != v {
		er.pairs = append(er.pairs, packPair(u, v))
	}
}

// scanEdge reads line, its "\n" removed, if it is the kind of line
// WriteEdgeList writes: two unsigned ASCII ids of at most 2³¹ − 1 between
// ASCII separators. ok is false for every other line, blank ones
// included.
func scanEdge(line []byte) (u, v NodeID, ok bool) {
	i := skipSpace(line, 0)
	if u, i, ok = scanID(line, i); !ok || i == len(line) || !isSpace(line[i]) {
		return 0, 0, false
	}
	if v, i, ok = scanID(line, skipSpace(line, i)); !ok {
		return 0, 0, false
	}
	return u, v, skipSpace(line, i) == len(line)
}

// scanID reads the run of decimal digits at s[i:], reporting false if
// there is none or its value is not a NodeID.
func scanID(s []byte, i int) (NodeID, int, bool) {
	start := i
	x := 0
	for ; i < len(s) && '0' <= s[i] && s[i] <= '9'; i++ {
		if x = 10*x + int(s[i]-'0'); x > math.MaxInt32 {
			return 0, i, false
		}
	}
	return NodeID(x), i, i > start
}

// isSpace is unicode.IsSpace on ASCII bytes other than '\n', which ends
// a line.
func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\v' || c == '\f' || c == '\r' }

func skipSpace(s []byte, i int) int {
	for i < len(s) && isSpace(s[i]) {
		i++
	}
	return i
}

// slowLine decides a line scanEdge did not, reading it with
// strings.TrimSpace, strings.Fields and strconv.ParseInt: blank lines,
// comments and the header, Unicode whitespace, signed ids and every
// rejection.
func (er *edgeReader) slowLine(raw []byte) error {
	line := strings.TrimSpace(string(raw))
	if line == "" {
		return nil
	}
	if strings.HasPrefix(line, "#") {
		var n, m int64
		_, err := fmt.Sscanf(line, "# nodes: %d", &n)
		if (err == nil && n > maxNodes) || errors.Is(err, strconv.ErrRange) {
			return fmt.Errorf("node count out of range (at most %d)", maxNodes)
		}
		if err == nil {
			er.Grow(int(n))
			if _, err := fmt.Sscanf(line, "# nodes: %d edges: %d", &n, &m); err == nil {
				// Only the first reservation counts: a file of headers
				// would otherwise reserve once a line.
				if hint := int(min(m, int64(er.maxHint))); hint > 0 && cap(er.pairs) == 0 {
					er.pairs = make([]uint64, 0, hint)
				}
			}
		}
		return nil
	}
	fields := strings.Fields(line)
	if len(fields) < 2 {
		return fmt.Errorf("want 'u v', got %q", line)
	}
	u, err := strconv.ParseInt(fields[0], 10, 32)
	if err != nil {
		return err
	}
	v, err := strconv.ParseInt(fields[1], 10, 32)
	if err != nil {
		return err
	}
	if u < 0 || v < 0 {
		return errors.New("negative node id")
	}
	er.add(NodeID(u), NodeID(v))
	return nil
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
// a misnamed .txt works too. A plain regular file's size bounds the
// header's edge hint.
func LoadEdgeList(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, maxLine)
	if magic, err := br.Peek(2); err == nil && magic[0] == 0x1f && magic[1] == 0x8b {
		zr, err := gzip.NewReader(br)
		if err != nil {
			return nil, fmt.Errorf("graph: %s: %w", path, err)
		}
		defer zr.Close()
		return readEdgeList(zr, hintCap)
	}
	maxHint := hintCap
	if fi, err := f.Stat(); err == nil && fi.Mode().IsRegular() {
		maxHint = int(fi.Size()/4 + 1)
	}
	return readEdgeList(br, maxHint)
}
