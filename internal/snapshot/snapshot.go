// Package snapshot is a versioned binary codec for the repository's heavy
// build artifacts: the CSR graph and the distance oracle (decomposition +
// quotient APSP tables). Building an oracle over a large graph takes
// seconds to minutes; decoding a snapshot is one sequential read into
// slices allocated once at their final size (Load knows the file's length),
// so a long-running server (cmd/reprod) restarts at the speed of reading
// back the artifact it persisted on a previous run: the graph plus six
// bytes per unordered cluster pair, checksummed and re-validated — the
// benchmark's 3,403-cluster oracle, whose build takes 0.4–0.6 s, is a
// 39 MB file that restarts in ≈ 0.06 s.
//
// Format (all integers little-endian, fixed width):
//
//	magic "RPSN" | version u16 | flags u16
//	meta: graphName, algorithm (u32 length + bytes), tau i64, seed u64
//	graph: n u64, arcs u64, xadj [n+1]i64, adj [arcs]i32
//	oracle (iff flags&FlagOracle):
//	    owner [n]i32, dist [n]i32,
//	    k u64, centers [k]i32, radii [k]i32,
//	    growthSteps i64, batches i64,
//	    stats (rounds i64, messages i64, maxFrontier i64),
//	    apsp [k(k−1)/2]u32, hops [k(k−1)/2]u16 (strict lower triangles,
//	    row d holding the cells (d, 0 … d−1); all-ones = unreachable)
//	crc32 u32 (IEEE, over everything above)
//
// Decoding verifies the checksum and re-validates structural invariants
// (graph.FromCSR, core.OracleFromParts), so a truncated or bit-flipped
// snapshot yields an error rather than a corrupt in-memory artifact.
package snapshot

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"

	"repro/internal/bsp"
	"repro/internal/core"
	"repro/internal/graph"
)

var magic = [4]byte{'R', 'P', 'S', 'N'}

// Version is the current format version. Readers reject other versions.
// v2 added Stats.PullRounds (direction-optimizing engine); v3 stores the
// oracle's tables in the cells the oracle itself holds (u32 distances, u16
// hops: 6 bytes a cluster pair where v2 spent 16); v4 stores each table
// once, as the strict lower triangle the oracle serves from, where v3 stored
// it square. There is no reader for v1–v3: they are rejected with the
// version error and the artifact is rebuilt from scratch — the snapshot is a
// cache, not a source of truth.
const Version uint16 = 4

const flagOracle uint16 = 1 << 0

// maxName bounds the decoded metadata strings; maxSide bounds node/arc/
// cluster counts read from the header so a corrupted length field cannot
// trigger a huge allocation before the checksum is verified.
const (
	maxName = 1 << 16
	maxSide = 1 << 31
)

// ErrChecksum is returned (wrapped) when the trailing CRC32 does not match
// the decoded payload.
var ErrChecksum = errors.New("snapshot: checksum mismatch")

// Meta identifies the build that produced an artifact — the cache key
// (graph, τ, seed, algorithm) of the serving layer.
type Meta struct {
	// GraphName is the symbolic name the graph is served under.
	GraphName string
	// Tau is the decomposition granularity the oracle was built with.
	Tau int
	// Seed is the decomposition seed.
	Seed uint64
	// Algorithm is "cluster" or "cluster2".
	Algorithm string
}

// Artifact is the unit of persistence: a graph, optionally the distance
// oracle built over it, and the metadata identifying the build.
type Artifact struct {
	Meta   Meta
	Graph  *graph.Graph
	Oracle *core.Oracle // nil when only the graph was persisted
}

// Write encodes the artifact to w. a.Graph must be non-nil; a.Oracle is
// optional but, when present, must have been built over a.Graph.
func Write(w io.Writer, a *Artifact) error {
	if a == nil || a.Graph == nil {
		return errors.New("snapshot: nil artifact or graph")
	}
	if a.Graph.NumNodes() == 0 {
		// The empty graph's xadj is nil (not [0]), which the fixed n+1
		// layout below cannot represent; serving rejects empty graphs
		// anyway, so refuse at write time rather than emit bytes Read
		// would reject.
		return errors.New("snapshot: empty graph")
	}
	if a.Oracle != nil && a.Oracle.Clustering().G != a.Graph {
		return errors.New("snapshot: oracle was not built over the artifact's graph")
	}
	crc := crc32.NewIEEE()
	bw := bufio.NewWriterSize(io.MultiWriter(w, crc), 1<<20)
	e := &encoder{w: bw, scratch: make([]byte, chunkBytes)}

	e.bytes(magic[:])
	e.u16(Version)
	var flags uint16
	if a.Oracle != nil {
		flags |= flagOracle
	}
	e.u16(flags)

	e.str(a.Meta.GraphName)
	e.str(a.Meta.Algorithm)
	e.i64(int64(a.Meta.Tau))
	e.u64(a.Meta.Seed)

	xadj, adj := a.Graph.CSR()
	e.u64(uint64(a.Graph.NumNodes()))
	e.u64(uint64(len(adj)))
	putCells(e, xadj)
	putCells(e, adj)

	if a.Oracle != nil {
		cl := a.Oracle.Clustering()
		putCells(e, cl.Owner)
		putCells(e, cl.Dist)
		e.u64(uint64(cl.NumClusters()))
		putCells(e, cl.Centers)
		putCells(e, cl.Radii)
		e.i64(int64(cl.GrowthSteps))
		e.i64(int64(cl.Batches))
		e.i64(int64(cl.Stats.Rounds))
		e.i64(cl.Stats.Messages)
		e.i64(int64(cl.Stats.MaxFrontier))
		e.i64(int64(cl.Stats.PullRounds))
		// The oracle stores both triangles flat in the wire's own cell widths:
		// one contiguous write each, no row walking, no widening.
		apsp, hops := a.Oracle.Tables()
		putCells(e, apsp)
		putCells(e, hops)
	}
	if e.err != nil {
		return e.err
	}
	// The checksum covers everything buffered so far; flush before reading
	// the hash state, then append the trailer outside the checksummed
	// stream.
	if err := bw.Flush(); err != nil {
		return err
	}
	var trailer [4]byte
	binary.LittleEndian.PutUint32(trailer[:], crc.Sum32())
	_, err := w.Write(trailer[:])
	return err
}

// Read decodes an artifact from r, verifying the checksum and structural
// invariants. It fails with a wrapped ErrChecksum on bit corruption and
// with io.ErrUnexpectedEOF (wrapped) on truncation. The stream's length is
// unknown, so arrays grow chunk by chunk as their bytes arrive; Load, which
// knows it, allocates each array once.
func Read(r io.Reader) (*Artifact, error) { return read(r, -1) }

// read decodes an artifact of size bytes, or of unknown length when size < 0.
func read(r io.Reader, size int64) (*Artifact, error) {
	crc := crc32.NewIEEE()
	d := &decoder{r: bufio.NewReaderSize(r, 1<<20), crc: crc, left: size, scratch: make([]byte, chunkBytes)}

	var m [4]byte
	d.bytes(m[:])
	if d.err == nil && m != magic {
		return nil, fmt.Errorf("snapshot: bad magic %q", m[:])
	}
	version := d.u16()
	if d.err == nil && version != Version {
		return nil, fmt.Errorf("snapshot: unsupported version %d (have %d)", version, Version)
	}
	flags := d.u16()

	var meta Meta
	meta.GraphName = d.str()
	meta.Algorithm = d.str()
	meta.Tau = int(d.i64())
	meta.Seed = d.u64()

	n := d.count("nodes")
	arcs := d.count("arcs")
	var g *graph.Graph
	if d.err == nil {
		xadj := cells[int64](d, n+1)
		adj := cells[graph.NodeID](d, arcs)
		if d.err == nil {
			var err error
			if g, err = graph.FromCSR(xadj, adj); err != nil {
				return nil, err
			}
		}
	}

	var o *core.Oracle
	if d.err == nil && flags&flagOracle != 0 {
		cl := &core.Clustering{G: g}
		cl.Owner = cells[graph.NodeID](d, n)
		cl.Dist = cells[int32](d, n)
		k := d.count("clusters")
		cl.Centers = cells[graph.NodeID](d, k)
		cl.Radii = cells[int32](d, k)
		cl.GrowthSteps = int(d.i64())
		cl.Batches = int(d.i64())
		cl.Stats = bsp.Stats{
			Rounds:      int(d.i64()),
			Messages:    d.i64(),
			MaxFrontier: int(d.i64()),
			PullRounds:  int(d.i64()),
		}
		// The wire cells are the oracle's own: each table decodes into the
		// one contiguous slice the oracle will serve from.
		apsp := cells[uint32](d, k*(k-1)/2)
		hops := cells[uint16](d, k*(k-1)/2)
		if d.err == nil {
			var err error
			if o, err = core.OracleFromParts(cl, apsp, hops); err != nil {
				return nil, err
			}
		}
	}
	if d.err != nil {
		return nil, d.err
	}

	// The trailer is read outside the checksummed region: compare the
	// stored CRC against the hash of everything decoded above.
	want := crc.Sum32()
	var trailer [4]byte
	if _, err := io.ReadFull(d.r, trailer[:]); err != nil {
		return nil, fmt.Errorf("snapshot: reading checksum: %w", err)
	}
	if got := binary.LittleEndian.Uint32(trailer[:]); got != want {
		return nil, fmt.Errorf("%w: stored %08x, computed %08x", ErrChecksum, got, want)
	}
	return &Artifact{Meta: meta, Graph: g, Oracle: o}, nil
}

// Save writes the artifact to the named file atomically: the bytes go to
// a temp file in the same directory and only a fully written, synced
// temp is renamed over the target. A crash (or error) at any point mid-
// write therefore never leaves a truncated snapshot at the target path —
// the previous snapshot, if any, survives intact — which is what lets a
// snapshot-only restart trust whatever it finds there. Every failure
// path removes the temp file, so an interrupted -drain shutdown cannot
// litter the snapshot directory with orphaned .snapshot-* files either.
func Save(path string, a *Artifact) (err error) {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".snapshot-*")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			os.Remove(tmp.Name())
		}
	}()
	if err := Write(tmp, a); err != nil {
		tmp.Close()
		return err
	}
	// Flush file data before the rename: a journaled rename of un-synced
	// data can survive a crash as a full-length file of garbage at the
	// target path.
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// Load reads an artifact from the named file. The file's size bounds every
// count the header announces, so each array is allocated once at its final
// length and a corrupt count fails before anything is allocated for it.
func Load(path string) (*Artifact, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	size := int64(-1) // a pipe or device has no length to trust
	if st, err := f.Stat(); err == nil && st.Mode().IsRegular() {
		size = st.Size()
	}
	return read(f, size)
}

// --- primitive encoding ---

type encoder struct {
	w       *bufio.Writer
	scratch []byte
	err     error
}

func (e *encoder) bytes(b []byte) {
	if e.err == nil {
		_, e.err = e.w.Write(b)
	}
}

func (e *encoder) u16(v uint16) {
	var b [2]byte
	binary.LittleEndian.PutUint16(b[:], v)
	e.bytes(b[:])
}

func (e *encoder) u32(v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	e.bytes(b[:])
}

func (e *encoder) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	e.bytes(b[:])
}

func (e *encoder) i64(v int64) { e.u64(uint64(v)) }

func (e *encoder) str(s string) {
	if len(s) > maxName {
		if e.err == nil {
			e.err = fmt.Errorf("snapshot: string of %d bytes exceeds limit", len(s))
		}
		return
	}
	e.u32(uint32(len(s)))
	e.bytes([]byte(s))
}

// chunkBytes is the array-section transfer granularity: elements are
// staged through a scratch buffer and read/written/checksummed one chunk at
// a time, so the codec's cost is a few large I/O and CRC calls per section
// instead of one per element.
const chunkBytes = 1 << 16

// cell is the element type of an array section: NodeID and the other int32
// arrays, the graph's int64 offsets, and the oracle's two table widths.
type cell interface {
	int64 | int32 | uint32 | uint16
}

// putCells writes vs as one array section.
func putCells[T cell](e *encoder, vs []T) {
	width := binary.Size(T(0))
	for len(vs) > 0 && e.err == nil {
		c := min(len(vs), chunkBytes/width)
		b := e.scratch[:c*width]
		switch width {
		case 2:
			for i, v := range vs[:c] {
				binary.LittleEndian.PutUint16(b[2*i:], uint16(v))
			}
		case 4:
			for i, v := range vs[:c] {
				binary.LittleEndian.PutUint32(b[4*i:], uint32(v))
			}
		case 8:
			for i, v := range vs[:c] {
				binary.LittleEndian.PutUint64(b[8*i:], uint64(v))
			}
		}
		e.bytes(b)
		vs = vs[c:]
	}
}

// --- primitive decoding ---

type decoder struct {
	r       *bufio.Reader
	crc     hash.Hash32
	left    int64 // bytes of input not yet decoded; negative when the input's length is unknown
	scratch []byte
	err     error
}

func (d *decoder) bytes(b []byte) {
	if d.err != nil {
		return
	}
	if _, err := io.ReadFull(d.r, b); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		d.err = fmt.Errorf("snapshot: truncated input: %w", err)
		return
	}
	d.crc.Write(b)
	d.left -= int64(len(b))
}

func (d *decoder) u16() uint16 {
	var b [2]byte
	d.bytes(b[:])
	return binary.LittleEndian.Uint16(b[:])
}

func (d *decoder) u32() uint32 {
	var b [4]byte
	d.bytes(b[:])
	return binary.LittleEndian.Uint32(b[:])
}

func (d *decoder) u64() uint64 {
	var b [8]byte
	d.bytes(b[:])
	return binary.LittleEndian.Uint64(b[:])
}

func (d *decoder) i64() int64 { return int64(d.u64()) }

func (d *decoder) str() string {
	n := d.u32()
	if d.err != nil {
		return ""
	}
	if n > maxName {
		d.err = fmt.Errorf("snapshot: string length %d exceeds limit", n)
		return ""
	}
	b := make([]byte, n)
	d.bytes(b)
	return string(b)
}

// count reads a u64 size field and bounds it, so a corrupted header cannot
// demand an enormous allocation.
func (d *decoder) count(what string) int {
	v := d.u64()
	if d.err != nil {
		return 0
	}
	if v > maxSide {
		d.err = fmt.Errorf("snapshot: %s count %d exceeds limit", what, v)
		return 0
	}
	return int(v)
}

// allocChunk bounds the first allocation of an array whose input length is
// unknown (Read on a stream): a corrupt count field then costs at most one
// chunk of over-allocation before the stream runs dry, instead of an upfront
// multi-GiB make(). The slice grows from there as bytes actually arrive.
const allocChunk = 1 << 20

// cells decodes an array section of n elements. When the input's length is
// known, a count is plausible iff its bytes are still there to read: an
// implausible one fails before anything is allocated, a plausible one gets
// its slice once, at full length, and every chunk decodes in place.
func cells[T cell](d *decoder, n int) []T {
	if d.err != nil {
		return nil
	}
	width := binary.Size(T(0))
	capacity := min(n, allocChunk)
	if d.left >= 0 {
		if int64(n) > d.left/int64(width) {
			d.err = fmt.Errorf("snapshot: truncated input: %d elements of %d bytes announced, %d bytes left: %w",
				n, width, d.left, io.ErrUnexpectedEOF)
			return nil
		}
		capacity = n
	}
	out := make([]T, 0, capacity)
	for len(out) < n {
		c := min(n-len(out), chunkBytes/width)
		b := d.scratch[:c*width]
		d.bytes(b)
		if d.err != nil {
			return nil
		}
		out = slices.Grow(out, c)[:len(out)+c]
		dst := out[len(out)-c:]
		switch width {
		case 2:
			for i := range dst {
				dst[i] = T(binary.LittleEndian.Uint16(b[2*i:]))
			}
		case 4:
			for i := range dst {
				dst[i] = T(binary.LittleEndian.Uint32(b[4*i:]))
			}
		case 8:
			for i := range dst {
				dst[i] = T(binary.LittleEndian.Uint64(b[8*i:]))
			}
		}
	}
	return out
}
