package mr

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"testing"

	"repro/internal/bsp"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/quotient"
	"repro/internal/rng"
)

func naiveMinPlus(a, b []int64, l int) []int64 {
	c := make([]int64, l*l)
	for i := 0; i < l; i++ {
		for j := 0; j < l; j++ {
			best := Inf
			for k := 0; k < l; k++ {
				if s := a[i*l+k] + b[k*l+j]; s < best {
					best = s
				}
			}
			c[i*l+j] = best
		}
	}
	return c
}

// wantBlockSide is the block side the product must pick, written from its
// definition: the largest b with 2b² ≤ ML (capped at ℓ) under a local
// memory, the largest b with b² ≤ ℓ without one, and never below 1.
func wantBlockSide(ml int64, l int) int {
	b := 1
	if ml > 0 {
		for b < l && 2*int64(b+1)*int64(b+1) <= ml {
			b++
		}
		return b
	}
	for (b+1)*(b+1) <= l {
		b++
	}
	return b
}

// ceilLog2 is ⌈log₂ l⌉, the squarings a path of l − 1 arcs needs.
func ceilLog2(l int) int { return bits.Len(uint(l - 1)) }

func TestMinPlusProductMatchesNaive(t *testing.T) {
	r := rng.New(3)
	for _, l := range []int{1, 2, 3, 7, 8, 9, 63, 64, 65} {
		for _, density := range []float64{0, 0.2, 0.9} {
			for _, holes := range []bool{false, true} {
				for _, ml := range []int64{0, 8, int64(2 * l)} {
					name := fmt.Sprintf("l=%d/inf=%v/holes=%v/ML=%d", l, density, holes, ml)
					a, b := make([]int64, l*l), make([]int64, l*l)
					for i := range a {
						a[i], b[i] = int64(r.Intn(20)), int64(r.Intn(20))
						if r.Bernoulli(density) {
							a[i] = Inf
						}
						if r.Bernoulli(density) {
							b[i] = Inf
						}
					}
					if holes { // an all-Inf row of A and an all-Inf column of B
						for x := 0; x < l; x++ {
							a[l/2*l+x], b[x*l+l/3] = Inf, Inf
						}
					}
					e := NewEngine(Config{ML: ml})
					got, err := e.MinPlusProduct(a, b, l)
					e.Close()
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					for i, w := range naiveMinPlus(a, b, l) {
						// The naive sums of an Inf operand overshoot Inf; the
						// product never forms them.
						if got[i] != min(w, Inf) {
							t.Fatalf("%s: C[%d][%d] = %d want %d", name, i/l, i%l, got[i], min(w, Inf))
						}
					}
					if bs := wantBlockSide(ml, l); e.MaxReducerInput() > 2*bs*bs {
						t.Fatalf("%s: a reducer took %d pairs, more than 2b² = %d", name, e.MaxReducerInput(), 2*bs*bs)
					}
				}
			}
		}
	}
}

func TestMinPlusSquareIdentityBehavior(t *testing.T) {
	// Squaring a distance matrix with zero diagonal must not increase any
	// entry and must keep the diagonal zero.
	l := 6
	a := []int64{
		0, 2, Inf, Inf, Inf, Inf,
		2, 0, 3, Inf, Inf, Inf,
		Inf, 3, 0, 1, Inf, Inf,
		Inf, Inf, 1, 0, 4, Inf,
		Inf, Inf, Inf, 4, 0, 5,
		Inf, Inf, Inf, Inf, 5, 0,
	}
	e := NewEngine(Config{})
	sq, err := e.MinPlusProduct(a, a, l)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < l; i++ {
		if sq[i*l+i] != 0 {
			t.Fatalf("diagonal broke at %d: %d", i, sq[i*l+i])
		}
		for j := 0; j < l; j++ {
			if sq[i*l+j] > a[i*l+j] {
				t.Fatalf("entry (%d,%d) increased: %d > %d", i, j, sq[i*l+j], a[i*l+j])
			}
		}
	}
	// Two-hop path 0-1-2 must now be present: 2+3.
	if sq[0*l+2] != 5 {
		t.Fatalf("two-hop distance %d want 5", sq[0*l+2])
	}
}

// weighted gives g's edges random weights in [1, maxW].
func weighted(g *graph.Graph, maxW int, seed uint64) *graph.Weighted {
	edges := g.EdgeList()
	r := rng.New(seed)
	ws := make([]int32, len(edges))
	for i := range ws {
		ws[i] = int32(1 + r.Intn(maxW))
	}
	return graph.MustWeighted(g.NumNodes(), edges, ws)
}

func TestAPSPMatchesDijkstra(t *testing.T) {
	// A disconnected union: a road-like piece, a G(n, m) piece and three
	// isolated nodes.
	road, gnm := graph.RoadLike(5, 5, 0.5, 3), graph.ErdosRenyi(20, 35, 4)
	edges := road.EdgeList()
	for _, uv := range gnm.EdgeList() {
		edges = append(edges, [2]graph.NodeID{uv[0] + graph.NodeID(road.NumNodes()), uv[1] + graph.NodeID(road.NumNodes())})
	}
	unionW := make([]int32, len(edges))
	for i := range unionW {
		unionW[i] = int32(1 + i%5)
	}
	// A weighted path of 2^5 + 1 nodes: its 32 arcs need all ⌈log₂ 33⌉ = 6
	// squarings, so the fixpoint is found by the last one the cap allows.
	cases := []struct {
		name  string
		w     *graph.Weighted
		exact int // squarings required, 0 when only the cap applies
	}{
		{"roadlike", weighted(graph.RoadLike(6, 6, 0.5, 2), 7, 5), 0},
		{"gnm", weighted(graph.ErdosRenyi(40, 70, 9), 9, 6), 0},
		{"union", graph.MustWeighted(road.NumNodes()+gnm.NumNodes()+3, edges, unionW), 0},
		{"path33", weighted(graph.Path(33), 4, 7), ceilLog2(33)},
	}
	for _, tc := range cases {
		e := NewEngine(Config{})
		mat, err := e.APSPByRepeatedSquaring(tc.w)
		e.Close()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		l := tc.w.NumNodes()
		dij, sssp := make([]int64, l), bsp.NewWeightedEngine(tc.w, 1, 0)
		for u := 0; u < l; u++ {
			sssp.SSSP(graph.NodeID(u), dij)
			for v := 0; v < l; v++ {
				want, got := dij[v], mat[u*l+v]
				if want == graph.InfDist {
					want = Inf
				}
				if got != want {
					t.Fatalf("%s (%d,%d): got %d want %d", tc.name, u, v, got, want)
				}
			}
		}
		// ℓ ≥ 4 here, so ⌈ℓ/b⌉ ≤ 2b² and every squaring is two rounds.
		squarings := e.Rounds() / 2
		if e.Rounds()%2 != 0 || squarings > ceilLog2(l) || (tc.exact > 0 && squarings != tc.exact) {
			t.Fatalf("%s: %d rounds for ℓ = %d (cap %d squarings, want %d)", tc.name, e.Rounds(), l, ceilLog2(l), tc.exact)
		}
	}
}

func TestDiameterByRepeatedSquaring(t *testing.T) {
	g := graph.Mesh(5, 4)
	edges := g.EdgeList()
	weights := make([]int32, len(edges))
	for i := range weights {
		weights[i] = 1
	}
	w := graph.MustWeighted(g.NumNodes(), edges, weights)
	e := NewEngine(Config{})
	d, err := e.DiameterByRepeatedSquaring(w)
	if err != nil {
		t.Fatal(err)
	}
	if d != 7 { // (5-1)+(4-1)
		t.Fatalf("diameter %d want 7", d)
	}
	// Three squarings cover the 7-hop diameter, a fourth changes no row and
	// stops the run one short of the ⌈log₂ 20⌉ = 5 cap; two rounds each.
	if e.Rounds() != 8 {
		t.Fatalf("repeated squaring took %d rounds, want 8", e.Rounds())
	}

	// The Section 5 input: the weighted quotient of a CLUSTER decomposition,
	// whose arc weights are real crossing lengths, not ones.
	road := graph.RoadLike(15, 15, 0.4, 2)
	cl, err := core.ClusterContext(context.Background(), road, 1, core.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	_, wq, err := quotient.BuildWeighted(road, cl.Owner, cl.Dist, cl.NumClusters())
	if err != nil {
		t.Fatal(err)
	}
	want, exact := wq.ExactDiameterWeighted(0)
	if !exact {
		t.Fatal("reference quotient diameter not certified")
	}
	e = NewEngine(Config{})
	defer e.Close()
	if d, err := e.DiameterByRepeatedSquaring(wq); err != nil || d != want {
		t.Fatalf("quotient of %d clusters: squaring %d (%v), exact %d", wq.NumNodes(), d, err, want)
	}
	// Fact 2's budget: no reducer above 2ℓ pairs, and no squaring (two
	// rounds) above 3·⌈ℓ/b⌉·ℓ² shuffled pairs.
	l := wq.NumNodes()
	bs := wantBlockSide(0, l)
	perSquaring := int64(3 * ((l + bs - 1) / bs) * l * l)
	if e.MaxReducerInput() > 2*l || e.TotalShuffled() > int64(e.Rounds()/2)*perSquaring {
		t.Fatalf("quotient of %d clusters: max reducer input %d (cap %d), %d pairs in %d rounds (cap %d a squaring)",
			l, e.MaxReducerInput(), 2*l, e.TotalShuffled(), e.Rounds(), perSquaring)
	}
}

func TestMinPlusProductErrors(t *testing.T) {
	e := NewEngine(Config{})
	if _, err := e.MinPlusProduct(make([]int64, 3), make([]int64, 4), 2); err == nil {
		t.Fatal("size mismatch should fail")
	}
}

func TestMinPlusProductRespectsML(t *testing.T) {
	// ML = 1 leaves 1×1 blocks, and a round-1 group holding one A entry and
	// one B entry already exceeds it: the product must fail before it
	// commits anything to the accounting.
	e := NewEngine(Config{ML: 1})
	defer e.Close()
	if _, err := e.Round([]Pair{{Key: 1}, {Key: 2}}, func(uint64, []Pair, Emitter) {}); err != nil {
		t.Fatal(err)
	}
	before := snap(e)
	l := 10
	a := make([]int64, l*l)
	if _, err := e.MinPlusProduct(a, a, l); !errors.Is(err, ErrLocalMemory) {
		t.Fatalf("want ErrLocalMemory, got %v", err)
	}
	if after := snap(e); after != before {
		t.Fatalf("failed product polluted accounting: %+v -> %+v", before, after)
	}
}

// The round-1 reducer multiplies its blocks in its shard's scratch, and a
// product on a warm engine writes its rounds into the engine's buffers: a
// dense 64×64 product (8×8 blocks, 512 key groups) allocates a handful of
// small objects (its occupancy tables, closures and C), none per group and
// no pair buffer.
func TestMinPlusProductAllocsDoNotGrowWithGroups(t *testing.T) {
	const l = 64
	a := make([]int64, l*l)
	for i := range a {
		a[i] = int64(i%7 + 1)
	}
	e := NewEngine(Config{Shards: 1})
	defer e.Close()
	product := func() {
		if _, err := e.MinPlusProduct(a, a, l); err != nil {
			t.Fatal(err)
		}
	}
	product()
	// Thirty runs: the count is an integer mean, which one stray
	// allocation elsewhere in the process, or the engine's RoundStats log
	// growing, tips over when it is taken over a few runs.
	if allocs := testing.AllocsPerRun(30, product); allocs > 7 {
		t.Fatalf("a warm 64×64 product allocates %.0f times, want at most 7", allocs)
	}
}

// benchQuotient is the benchmark's MR input: the 64-cluster τ = 1 quotient
// of RoadLike(15, 15, 0.4, 1).
func benchQuotient(tb testing.TB) *graph.Weighted {
	road := graph.RoadLike(15, 15, 0.4, 1)
	cl, err := core.ClusterContext(context.Background(), road, 1, core.Options{Seed: 1010})
	if err != nil {
		tb.Fatal(err)
	}
	_, wq, err := quotient.BuildWeighted(road, cl.Owner, cl.Dist, cl.NumClusters())
	if err != nil {
		tb.Fatal(err)
	}
	if wq.NumNodes() != 64 {
		tb.Fatalf("quotient has %d clusters, want 64", wq.NumNodes())
	}
	return wq
}

// A warm engine squares the benchmark's quotient (five squarings, ten
// rounds) in the buffers the first run grew, at every shard count: the
// matrix, its frontier and its square, then each squaring's small objects
// as in TestMinPlusProductAllocsDoNotGrowWithGroups, and no pair buffer.
func TestDiameterByRepeatedSquaringAllocsPinned(t *testing.T) {
	wq := benchQuotient(t)
	e := NewEngine(Config{})
	defer e.Close()
	diameter := func() {
		if _, err := e.DiameterByRepeatedSquaring(wq); err != nil {
			t.Fatal(err)
		}
	}
	diameter()
	if allocs := testing.AllocsPerRun(10, diameter); allocs > 33 { // ten runs: see TestMinPlusProductAllocsDoNotGrowWithGroups
		t.Fatalf("a warm engine's diameter allocates %.0f times, want at most 33", allocs)
	}
}

// BenchmarkDiameterByRepeatedSquaring squares the benchmark's MR input, the
// 64-cluster τ = 1 quotient of RoadLike(15, 15, 0.4, 1), and reports the
// shuffle volume and rounds the blocked product and the frontier take, and
// the time and allocations each shuffled pair costs.
func BenchmarkDiameterByRepeatedSquaring(b *testing.B) {
	wq := benchQuotient(b)
	b.ReportAllocs()
	b.ResetTimer()
	var pairs, rounds int64
	for i := 0; i < b.N; i++ {
		e := NewEngine(Config{})
		if _, err := e.DiameterByRepeatedSquaring(wq); err != nil {
			b.Fatal(err)
		}
		pairs, rounds = pairs+e.TotalShuffled(), rounds+int64(e.Rounds())
		e.Close()
	}
	b.ReportMetric(float64(pairs)/float64(b.N), "pairs/op")
	b.ReportMetric(float64(rounds)/float64(b.N), "rounds/op")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(pairs), "ns/pair")
}
