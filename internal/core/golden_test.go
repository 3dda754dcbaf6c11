package core

import (
	"context"
	"encoding/binary"
	"hash"
	"hash/fnv"
	"testing"

	"repro/internal/bsp"
	"repro/internal/graph"
)

// Golden fingerprints: FNV-1a over the full output of each growth driver,
// committed as constants. A refactor of the schedule, the growers or the
// engines that moves a single coin flip, claim or bucket changes a
// fingerprint; equal fingerprints are the proof that it did not.
//
// The WeightedCluster column dates from the commit before the three batch
// loops were folded into Schedule. The Cluster and Cluster2 columns were
// re-pinned when the claim moved into bsp.Engine: they used to be computed
// at Workers: 1 only, where a push round's winner was the first claimant in
// frontier order (and at any other worker count whichever goroutine got
// there first); the winner is now the smallest-id frontier neighbor, so the
// same constant must come out at every worker count and direction.

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

// growthSweep runs grow (ClusterContext or Cluster2) at every
// (workers, direction) combination and returns the one fingerprint all of
// them must share.
func growthSweep(t *testing.T, key string, g *graph.Graph, tau int, seed uint64, workers []int,
	grow func(context.Context, *graph.Graph, int, Options) (*Clustering, error)) uint64 {
	t.Helper()
	var want uint64
	for i, w := range workers {
		for j, dir := range []bsp.Direction{bsp.DirAuto, bsp.DirPush, bsp.DirPull} {
			c, err := grow(context.Background(), g, tau, Options{Seed: seed, Workers: w, Direction: dir})
			if err != nil {
				t.Fatal(err)
			}
			fp := fpClustering(c)
			if i == 0 && j == 0 {
				want = fp
			} else if fp != want {
				t.Errorf("%s: fingerprint %#x at workers=%d direction=%v, %#x at workers=%d auto", key, fp, w, dir, want, workers[0])
			}
		}
	}
	return want
}

func TestGoldenFingerprints(t *testing.T) {
	want := map[string][3]uint64{ // {Cluster, Cluster2, WeightedCluster}
		"road/1":  {0x586592cd277a3845, 0x32ba250747b06bba, 0x1278616674aed2d7},
		"road/2":  {0xce5cdbb6c4d92104, 0xd776ebf3521ab785, 0xce99e1fc7649d3ff},
		"union/1": {0x95e9ed7e55af379f, 0x401815eae7d13ea5, 0xbe10b5d648806913},
		"union/2": {0x84c8f4d8c95b7fae, 0x8310937db7973170, 0x80174a40dd88c618},
	}
	ctx := context.Background()
	for name, g := range goldenGraphs() {
		wg := randomWeighted(t, g, 5, 9)
		for _, seed := range []uint64{1, 2} {
			key := name + "/" + string(rune('0'+seed))
			got := [3]uint64{
				growthSweep(t, key+" Cluster", g, 2, seed, []int{1, 2, 8}, ClusterContext),
				growthSweep(t, key+" Cluster2", g, 2, seed, []int{1, 2, 8}, Cluster2),
			}
			for _, workers := range []int{1, 2, 8} {
				wc, err := WeightedCluster(ctx, wg, 2, Options{Seed: seed, Workers: workers})
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

// The golden inputs are small enough that every push round runs inline. The
// same sweep on the two inputs of workers_test.go, whose frontiers carry
// well over the 6 k arcs that send a push round to the pool, is where the
// workers actually contend for parent words.
func TestGrowthIsWorkerInvariant(t *testing.T) {
	for name, g := range workerSweepGraphs() {
		for _, seed := range []uint64{1, 2} {
			key := name + "/" + string(rune('0'+seed))
			growthSweep(t, key+" Cluster", g, 4, seed, []int{1, 2, 3, 8}, ClusterContext)
			growthSweep(t, key+" Cluster2", g, 4, seed, []int{1, 2, 3, 8}, Cluster2)
		}
	}
}
