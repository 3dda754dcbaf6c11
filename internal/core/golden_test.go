package core

import (
	"context"
	"encoding/binary"
	"hash"
	"hash/fnv"
	"testing"

	"repro/internal/graph"
)

// Golden fingerprints: FNV-1a over the full output of each growth driver,
// computed at the commit BEFORE the three batch loops were folded into
// Schedule and committed as constants. A refactor of the schedule, the
// growers or the engines that moves a single coin flip, claim or bucket
// changes a fingerprint; equal fingerprints are the proof that it did not.

func fpInts[T int32 | int64](h hash.Hash64, xs []T) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(len(xs)))
	h.Write(b[:])
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], uint64(int64(x)))
		h.Write(b[:])
	}
}

func fpClustering(c *Clustering) uint64 {
	h := fnv.New64a()
	fpInts(h, c.Centers)
	fpInts(h, c.Owner)
	fpInts(h, c.Dist)
	return h.Sum64()
}

func fpWeighted(c *WeightedClustering) uint64 {
	h := fnv.New64a()
	fpInts(h, c.Centers)
	fpInts(h, c.Owner)
	fpInts(h, c.WDist)
	fpInts(h, c.HopDist)
	return h.Sum64()
}

// goldenGraphs are the two inputs of the fingerprint table: a connected
// road-like grid (many batches, long growth) and a disconnected union with
// isolated nodes (the forced-center guard and the singleton tail).
func goldenGraphs() map[string]*graph.Graph {
	b := graph.NewBuilder(0)
	off := graph.NodeID(0)
	for _, part := range []*graph.Graph{graph.Mesh(18, 18), graph.Cycle(90), graph.Star(40), graph.Path(3)} {
		b.Grow(int(off) + part.NumNodes())
		part.Edges(func(u, v graph.NodeID) bool { b.AddEdge(off+u, off+v); return true })
		off += graph.NodeID(part.NumNodes())
	}
	b.Grow(int(off) + 5) // five isolated nodes
	return map[string]*graph.Graph{
		"road":  graph.RoadLike(40, 40, 0.4, 7),
		"union": b.Build(),
	}
}

func TestGoldenFingerprints(t *testing.T) {
	want := map[string][3]uint64{ // {Cluster, Cluster2, WeightedCluster}
		"road/1":  {0x80c17a22cf230e26, 0x5d35b6a25a305e7a, 0x1278616674aed2d7},
		"road/2":  {0xe56e027da582a898, 0xa5a85abe57e7ff01, 0xce99e1fc7649d3ff},
		"union/1": {0x95e9ed7e55af379f, 0x26ba19bac0bd8b6c, 0xbe10b5d648806913},
		"union/2": {0xef371a349bed6a43, 0xe6cbdb20380d8265, 0x80174a40dd88c618},
	}
	ctx := context.Background()
	for name, g := range goldenGraphs() {
		wg := randomWeighted(t, g, 5, 9)
		for _, seed := range []uint64{1, 2} {
			key := name + "/" + string(rune('0'+seed))
			c1, err := ClusterContext(ctx, g, 2, Options{Seed: seed, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			c2, err := Cluster2Context(ctx, g, 2, Options{Seed: seed, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			got := [3]uint64{fpClustering(c1), fpClustering(c2), 0}
			for _, workers := range []int{1, 2, 8} {
				wc, err := WeightedClusterContext(ctx, wg, 2, Options{Seed: seed, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				fp := fpWeighted(wc)
				if got[2] != 0 && fp != got[2] {
					t.Errorf("%s: weighted fingerprint differs at workers=%d", key, workers)
				}
				got[2] = fp
			}
			if got != want[key] {
				t.Errorf("%s: fingerprints {%#x, %#x, %#x}, golden {%#x, %#x, %#x}",
					key, got[0], got[1], got[2], want[key][0], want[key][1], want[key][2])
			}
		}
	}
}
