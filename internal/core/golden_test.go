package core

import (
	"context"
	"encoding/binary"
	"fmt"
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

// wideWeightGraphs are the inputs of TestWideWeightFingerprints: weight
// ranges up to [1, 1000] against the goldens' [1, 9], so a bucket (as wide
// as the mean weight) holds many distinct distances, nodes are lowered
// several times inside their bucket, and about half the arcs weigh more
// than the bucket width.
func wideWeightGraphs(t *testing.T) map[string]*graph.Weighted {
	return map[string]*graph.Weighted{
		"er":   randomWeighted(t, graph.ErdosRenyi(3000, 12000, 1), 5, 100),
		"road": randomWeighted(t, graph.RoadLike(60, 60, 0.4, 3), 5, 1000),
		"ba":   randomWeighted(t, graph.BarabasiAlbert(3000, 3, 1), 5, 7),
	}
}

// TestWideWeightFingerprints pins WeightedCluster's full output at seeds
// 1–3 and τ ∈ {1, 4, 16}, the same at one worker and at four, and the
// exact weighted diameter of each input. The constants date from the
// engine that offered arcs above the bucket width only from final words.
func TestWideWeightFingerprints(t *testing.T) {
	wantFP := map[string]uint64{
		"er/1/1":    0xd7c415db171821e4,
		"er/1/4":    0x895ca3de270a0e64,
		"er/1/16":   0xc85c537665ef2fee,
		"er/2/1":    0xe5c8afbb932fde9b,
		"er/2/4":    0xdc68d83ad308da3c,
		"er/2/16":   0xb136615251f5a3cf,
		"er/3/1":    0xec8d512d23423774,
		"er/3/4":    0x8e4ee437054fbbaa,
		"er/3/16":   0xf055c414c5756f10,
		"road/1/1":  0xe99dfd2a91919cff,
		"road/1/4":  0xa5fb5fef21e91891,
		"road/1/16": 0x9629af2c2237e79b,
		"road/2/1":  0x21ea5263d50611aa,
		"road/2/4":  0x28ccad1aa5594d1,
		"road/2/16": 0x54b594dca78f7da0,
		"road/3/1":  0x87409a751db92fb5,
		"road/3/4":  0xed4246fa003e1519,
		"road/3/16": 0x9cf951fabccad853,
		"ba/1/1":    0x8e978c2eea219d7a,
		"ba/1/4":    0x5450fc8f606cddb7,
		"ba/1/16":   0xb1ce8039a33c9206,
		"ba/2/1":    0x77b9d162f7bcbbd0,
		"ba/2/4":    0x110dfd40d2cf8520,
		"ba/2/16":   0xd569aacb4d6f48dc,
		"ba/3/1":    0x7bc769b4740b48a9,
		"ba/3/4":    0x4f95953df74e9333,
		"ba/3/16":   0xa45d37bb3a44d36b,
	}
	wantDiam := map[string]int64{
		"er":   311,
		"road": 46278,
		"ba":   25,
	}
	ctx := context.Background()
	for name, wg := range wideWeightGraphs(t) {
		d, exact := wg.ExactDiameterWeighted(0)
		if !exact || d != wantDiam[name] {
			t.Errorf("%s: ExactDiameterWeighted = (%d, %v), pinned %d", name, d, exact, wantDiam[name])
		}
		for _, seed := range []uint64{1, 2, 3} {
			for _, tau := range []int{1, 4, 16} {
				key := fmt.Sprintf("%s/%d/%d", name, seed, tau)
				for _, workers := range []int{1, 4} {
					wc, err := WeightedCluster(ctx, wg, tau, Options{Seed: seed, Workers: workers})
					if err != nil {
						t.Fatal(err)
					}
					if fp := fpWeighted(wc); fp != wantFP[key] {
						t.Errorf("%s workers=%d: fingerprint %#x, pinned %#x", key, workers, fp, wantFP[key])
					}
				}
			}
		}
	}
}
