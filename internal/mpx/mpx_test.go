package mpx

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/graph"
)

func TestDecomposePartitionValid(t *testing.T) {
	for name, g := range map[string]*graph.Graph{
		"mesh":   graph.Mesh(30, 30),
		"road":   graph.RoadLike(25, 25, 0.4, 3),
		"social": graph.BarabasiAlbert(2000, 4, 5),
		"path":   graph.Path(400),
	} {
		for _, beta := range []float64{0.05, 0.3, 1.0} {
			cl, err := Decompose(g, Options{Beta: beta, Seed: 1})
			if err != nil {
				t.Fatalf("%s beta=%v: %v", name, beta, err)
			}
			if err := cl.Validate(); err != nil {
				t.Errorf("%s beta=%v: %v", name, beta, err)
			}
		}
	}
}

func TestDecomposeErrors(t *testing.T) {
	if _, err := Decompose(graph.Path(5), Options{Beta: 0}); err == nil {
		t.Fatal("beta=0 should fail")
	}
	if _, err := Decompose(graph.NewBuilder(0).Build(), Options{Beta: 1}); err == nil {
		t.Fatal("empty graph should fail")
	}
}

func TestDecomposeDeterministicAcrossWorkers(t *testing.T) {
	// The min over (arrival, cluster) makes MPX fully deterministic: same
	// seed means identical owners and distances regardless of worker count.
	g := graph.Mesh(40, 40)
	ref, err := Decompose(g, Options{Beta: 0.2, Seed: 7, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 0} {
		cl, err := Decompose(g, Options{Beta: 0.2, Seed: 7, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if cl.NumClusters() != ref.NumClusters() {
			t.Fatalf("workers=%d: %d clusters vs %d", workers, cl.NumClusters(), ref.NumClusters())
		}
		for u := range ref.Owner {
			if cl.Owner[u] != ref.Owner[u] || cl.Dist[u] != ref.Dist[u] {
				t.Fatalf("workers=%d: diverged at node %d", workers, u)
			}
		}
	}
}

func TestDecomposeClusterCountGrowsWithBeta(t *testing.T) {
	g := graph.Mesh(50, 50)
	small, err := Decompose(g, Options{Beta: 0.05, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	large, err := Decompose(g, Options{Beta: 1.0, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if large.NumClusters() <= small.NumClusters() {
		t.Fatalf("beta=1.0 gave %d clusters, beta=0.05 gave %d",
			large.NumClusters(), small.NumClusters())
	}
}

func TestDecomposeRadiusBound(t *testing.T) {
	// MPX: max radius O(log n / beta) with high probability. Use a very
	// generous constant to keep the test stable.
	g := graph.Mesh(50, 50)
	beta := 0.3
	cl, err := Decompose(g, Options{Beta: beta, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	bound := 8 * math.Log(float64(g.NumNodes())) / beta
	if float64(cl.MaxRadius()) > bound {
		t.Fatalf("max radius %d exceeds 8·ln(n)/β = %.0f", cl.MaxRadius(), bound)
	}
}

func TestDecomposeSingleNode(t *testing.T) {
	cl, err := Decompose(graph.Path(1), Options{Beta: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if cl.NumClusters() != 1 || cl.Owner[0] != 0 || cl.Dist[0] != 0 {
		t.Fatal("single node decomposition wrong")
	}
}

func TestDecomposeDisconnected(t *testing.T) {
	b := graph.NewBuilder(60)
	for i := 0; i < 29; i++ {
		b.AddEdge(graph.NodeID(i), graph.NodeID(i+1))
	}
	for i := 30; i < 59; i++ {
		b.AddEdge(graph.NodeID(i), graph.NodeID(i+1))
	}
	g := b.Build()
	cl, err := Decompose(g, Options{Beta: 0.5, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Validate(); err != nil {
		t.Fatal(err)
	}
	if cl.NumClusters() < 2 {
		t.Fatal("two components need at least two clusters")
	}
}

func TestDecomposeSmallBetaFewClusters(t *testing.T) {
	// With tiny beta shifts are huge and spread out; the earliest-starting
	// few centers swallow the graph.
	g := graph.BarabasiAlbert(3000, 3, 6)
	cl, err := Decompose(g, Options{Beta: 0.02, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if cl.NumClusters() > g.NumNodes()/10 {
		t.Fatalf("beta=0.02 produced %d clusters on %d nodes", cl.NumClusters(), g.NumNodes())
	}
}

func TestBetaForTargetClusters(t *testing.T) {
	g := graph.Mesh(40, 40)
	beta, cl, err := BetaForTargetClusters(g, 100, 0.35, Options{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if beta <= 0 {
		t.Fatalf("beta=%v", beta)
	}
	k := cl.NumClusters()
	if k < 50 || k > 200 {
		t.Fatalf("target 100 clusters, got %d (beta=%v)", k, beta)
	}
}

func TestBetaForTargetClustersErrors(t *testing.T) {
	if _, _, err := BetaForTargetClusters(graph.Path(5), 0, 0.1, Options{}); err == nil {
		t.Fatal("target 0 should fail")
	}
}

func TestPackUnpackRoundTrip(t *testing.T) {
	cases := []struct {
		arr float32
		id  int32
	}{{0, 0}, {1.5, 3}, {100.25, 1 << 20}, {0.001, 42}}
	for _, c := range cases {
		a, id := unpack(pack(c.arr, c.id))
		if a != c.arr || id != c.id {
			t.Fatalf("pack/unpack (%v,%d) -> (%v,%d)", c.arr, c.id, a, id)
		}
	}
}

func TestPackOrdering(t *testing.T) {
	// Smaller arrival must always win; ties break toward smaller id.
	if pack(1.0, 5) >= pack(2.0, 1) {
		t.Fatal("arrival ordering broken")
	}
	if pack(1.0, 1) >= pack(1.0, 2) {
		t.Fatal("id tie-break broken")
	}
}

// Fingerprints of (Centers, Owner, Dist), computed at the commit before the
// rounds moved from the engine's claim step (push and exhaustive-pull
// closures around an atomic min) to its gather step, at β = 0.3. Every run
// had rounds in both directions. A decomposition that differs in one owner
// or one distance, at any worker count, changes a fingerprint.
func TestDecomposePinned(t *testing.T) {
	b := graph.NewBuilder(0)
	off := graph.NodeID(0)
	for _, part := range []*graph.Graph{graph.Mesh(40, 40), graph.Cycle(600), graph.Star(100)} {
		b.Grow(int(off) + part.NumNodes())
		part.Edges(func(u, v graph.NodeID) bool { b.AddEdge(off+u, off+v); return true })
		off += graph.NodeID(part.NumNodes())
	}
	b.Grow(int(off) + 5) // five isolated nodes
	graphs := map[string]*graph.Graph{
		"mesh":  graph.Mesh(50, 50),
		"gnp":   graph.ErdosRenyi(3000, 9000, 3),
		"union": b.Build(),
	}
	want := map[string][2]uint64{ // seeds 1 and 2
		"mesh":  {0x183e52bb544fbef5, 0xf26416d175f690ad},
		"gnp":   {0x5a13b51565598567, 0x9eebf1a491cce00d},
		"union": {0x4217ed8a55bb2cd9, 0x5467a759f70a0cf9},
	}
	for name, g := range graphs {
		for i, seed := range []uint64{1, 2} {
			for _, workers := range []int{1, 2, 8} {
				cl, err := Decompose(g, Options{Beta: 0.3, Seed: seed, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				h := fnv.New64a()
				var buf [8]byte
				for _, xs := range [][]int32{cl.Centers, cl.Owner, cl.Dist} {
					binary.LittleEndian.PutUint64(buf[:], uint64(len(xs)))
					h.Write(buf[:])
					for _, x := range xs {
						binary.LittleEndian.PutUint64(buf[:], uint64(int64(x)))
						h.Write(buf[:])
					}
				}
				if got := h.Sum64(); got != want[name][i] {
					t.Errorf("%s seed %d workers %d: fingerprint %#x, pinned %#x", name, seed, workers, got, want[name][i])
				}
			}
		}
	}
}
