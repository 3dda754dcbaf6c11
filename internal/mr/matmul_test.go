package mr

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"testing"

	"repro/internal/bsp"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/quotient"
	"repro/internal/rng"
)

// naiveSquare is A ⊗ A by the definition, skipping Inf operands (Inf + Inf
// overflows int64).
func naiveSquare(a []int64, l int) []int64 {
	c := make([]int64, l*l)
	for i := 0; i < l; i++ {
		for j := 0; j < l; j++ {
			best := graph.InfDist
			for k := 0; k < l; k++ {
				if x, y := a[i*l+k], a[k*l+j]; x < graph.InfDist && y < graph.InfDist {
					best = min(best, x+y)
				}
			}
			c[i*l+j] = best
		}
	}
	return c
}

// wantBlockSide is the block side the squaring must pick, written from its
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

// allOpen is an open mask of l rows, every row open.
func allOpen(l int) []bool {
	open := make([]bool, l)
	for i := range open {
		open[i] = true
	}
	return open
}

// TestMinPlusProductMatchesNaive diffs the blocked squaring against the
// definition on random symmetric matrices and random open masks: it must
// return, in ascending key order, exactly the finite cells (i, j) with
// i ≤ j whose row and column are open.
func TestMinPlusProductMatchesNaive(t *testing.T) {
	r := rng.New(3)
	for _, l := range []int{1, 2, 3, 7, 8, 9, 63, 64, 65} {
		for _, density := range []float64{0, 0.2, 0.9} {
			for _, holes := range []bool{false, true} {
				for _, ml := range []int64{0, 8, int64(2 * l)} {
					name := fmt.Sprintf("l=%d/inf=%v/holes=%v/ML=%d", l, density, holes, ml)
					a, open := make([]int64, l*l), make([]bool, l)
					for i := 0; i < l; i++ {
						open[i] = r.Bernoulli(0.7)
						for j := i; j < l; j++ {
							v := int64(r.Intn(20))
							if r.Bernoulli(density) {
								v = graph.InfDist
							}
							a[i*l+j], a[j*l+i] = v, v
						}
					}
					if holes { // an all-Inf row and, by symmetry, column
						for x := 0; x < l; x++ {
							a[l/2*l+x], a[x*l+l/2] = graph.InfDist, graph.InfDist
						}
					}
					var want []Pair
					for c, v := range naiveSquare(a, l) {
						if i, j := c/l, c%l; i <= j && open[i] && open[j] && v < graph.InfDist {
							want = append(want, Pair{Key: uint64(c), B: v})
						}
					}
					e := NewEngine(Config{ML: ml})
					got, err := e.square(a, l, open)
					e.Close()
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if len(got) != len(want) {
						t.Fatalf("%s: %d cells, want %d", name, len(got), len(want))
					}
					for x, w := range want {
						if got[x].Key != w.Key || got[x].B != w.B {
							t.Fatalf("%s: cell %d is (%d,%d) = %d, want (%d,%d) = %d", name, x,
								got[x].Key/uint64(l), got[x].Key%uint64(l), got[x].B, w.Key/uint64(l), w.Key%uint64(l), w.B)
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
	// entry and must keep the diagonal zero: every finite cell of the
	// upper triangle comes back, no higher than it was.
	const l, inf = 6, graph.InfDist
	a := []int64{
		0, 2, inf, inf, inf, inf,
		2, 0, 3, inf, inf, inf,
		inf, 3, 0, 1, inf, inf,
		inf, inf, 1, 0, 4, inf,
		inf, inf, inf, 4, 0, 5,
		inf, inf, inf, inf, 5, 0,
	}
	e := NewEngine(Config{})
	defer e.Close()
	cells, err := e.square(a, l, allOpen(l))
	if err != nil {
		t.Fatal(err)
	}
	sq := slices.Repeat([]int64{inf}, l*l)
	for _, p := range cells {
		sq[p.Key] = p.B
	}
	for i := 0; i < l; i++ {
		if sq[i*l+i] != 0 {
			t.Fatalf("diagonal broke at %d: %d", i, sq[i*l+i])
		}
		for j := i; j < l; j++ {
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
	// G(37, m) is one past a multiple of its block side 6: its last block
	// row and column, and so its last diagonal block, are cut to one cell.
	cases := []struct {
		name  string
		w     *graph.Weighted
		exact int // squarings required, 0 when only the cap applies
	}{
		{"roadlike", weighted(graph.RoadLike(6, 6, 0.5, 2), 7, 5), 0},
		{"gnm", weighted(graph.ErdosRenyi(40, 70, 9), 9, 6), 0},
		{"gnm37", weighted(graph.ErdosRenyi(37, 60, 8), 9, 8), 0},
		{"union", graph.MustWeighted(road.NumNodes()+gnm.NumNodes()+3, edges, unionW), 0},
		{"path33", weighted(graph.Path(33), 4, 7), ceilLog2(33)},
	}
	closedEarly := false // some case closes a row before its last squaring
	for _, tc := range cases {
		l := tc.w.NumNodes()
		dij, sssp := make([]int64, l*l), bsp.NewWeightedEngine(tc.w, 1, 0)
		for u := 0; u < l; u++ {
			sssp.SSSP(graph.NodeID(u), dij[u*l:(u+1)*l])
		}
		// Squarings by the definition: a row the next squaring leaves as it
		// is closes, and no later squaring reads it again.
		cur := slices.Repeat([]int64{graph.InfDist}, l*l)
		for u := 0; u < l; u++ {
			cur[u*l+u] = 0
			nbrs, ws := tc.w.Neighbors(graph.NodeID(u))
			for i, v := range nbrs {
				cur[u*l+int(v)] = min(cur[u*l+int(v)], int64(ws[i]))
			}
		}
		for span := 1; span < l; span *= 2 {
			next := naiveSquare(cur, l)
			changed := !slices.Equal(next, cur)
			for i := 0; i < l && changed && 2*span < l; i++ { // another squaring follows
				closedEarly = closedEarly || slices.Equal(next[i*l:(i+1)*l], cur[i*l:(i+1)*l])
			}
			if !changed {
				break
			}
			cur = next
		}
		for _, cfg := range []Config{{}, {ML: 8}, {ML: int64(2 * l)}, {Shards: 4}} {
			name := fmt.Sprintf("%s/ML=%d/shards=%d", tc.name, cfg.ML, cfg.Shards)
			e := NewEngine(cfg)
			mat, err := e.APSPByRepeatedSquaring(tc.w)
			e.Close()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for u := 0; u < l; u++ {
				for v := 0; v < l; v++ {
					if want, got := dij[u*l+v], mat[u*l+v]; got != want {
						t.Fatalf("%s (%d,%d): got %d want %d", name, u, v, got, want)
					}
				}
			}
			// A squaring is round 1 and then one min round per level of the
			// tree of fan-in 2b² over its nb partials.
			bs := wantBlockSide(cfg.ML, l)
			roundsPer := 1
			for span := (l + bs - 1) / bs; span > 1; span = (span + 2*bs*bs - 1) / (2 * bs * bs) {
				roundsPer++
			}
			squarings := e.Rounds() / roundsPer
			if e.Rounds()%roundsPer != 0 || squarings > ceilLog2(l) || (tc.exact > 0 && squarings != tc.exact) {
				t.Fatalf("%s: %d rounds for ℓ = %d, %d a squaring (cap %d squarings, want %d)",
					name, e.Rounds(), l, roundsPer, ceilLog2(l), tc.exact)
			}
		}
	}
	if !closedEarly {
		t.Fatal("no case closes a row before its last squaring: the frontier's closed rows are not covered")
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
	// It and the benchmark's quotient, with the shuffle volume and rounds
	// of their squarings pinned.
	for _, tc := range []struct {
		name             string
		w                *graph.Weighted
		shuffled, rounds int64
	}{
		{"section5", wq, 104323, 10},
		{"bench", benchQuotient(t), 120269, 10},
	} {
		want, exact := tc.w.ExactDiameterWeighted(0)
		if !exact {
			t.Fatalf("%s: reference quotient diameter not certified", tc.name)
		}
		e := NewEngine(Config{})
		d, err := e.DiameterByRepeatedSquaring(tc.w)
		e.Close()
		if err != nil || d != want {
			t.Fatalf("%s: quotient of %d clusters: squaring %d (%v), exact %d", tc.name, tc.w.NumNodes(), d, err, want)
		}
		if e.TotalShuffled() != tc.shuffled || int64(e.Rounds()) != tc.rounds {
			t.Errorf("%s: %d pairs in %d rounds, pinned %d in %d", tc.name, e.TotalShuffled(), e.Rounds(), tc.shuffled, tc.rounds)
		}
		// Fact 2's budget: no reducer above 2ℓ pairs, and no squaring (two
		// rounds) above the triangle's 3·nb²(nb+1)·b²/2 shuffled pairs.
		l := tc.w.NumNodes()
		bs := wantBlockSide(0, l)
		nb := int64((l + bs - 1) / bs)
		perSquaring := 3 * nb * nb * (nb + 1) * int64(bs*bs) / 2
		if e.MaxReducerInput() > 2*l {
			t.Errorf("%s: max reducer input %d, cap 2ℓ = %d", tc.name, e.MaxReducerInput(), 2*l)
		}
		stats := e.RoundStats()
		for s := 0; s+1 < len(stats); s += 2 {
			if in := stats[s].PairsIn + stats[s+1].PairsIn; in > perSquaring {
				t.Errorf("%s: squaring %d shuffled %d pairs, cap %d", tc.name, s/2+1, in, perSquaring)
			}
		}
	}
}

// A path of 600 nodes whose arcs weigh MaxInt32 has diameter
// 599·(2³¹ − 1), past 2⁴⁰: every finite distance must survive the
// squarings, however large. Blocks of 300×300, two to a side, keep the
// largest round near 1 M pairs (110 MB resident); the default 24×24 ones
// would shuffle 9 M (1 GB).
func TestDiameterByRepeatedSquaringWideDistances(t *testing.T) {
	g := graph.Path(600)
	edges := g.EdgeList()
	w := graph.MustWeighted(g.NumNodes(), edges, slices.Repeat([]int32{math.MaxInt32}, len(edges)))
	want, exact := w.ExactDiameterWeighted(0)
	if !exact || want != 599*math.MaxInt32 {
		t.Fatalf("reference diameter %d (exact %v), want %d", want, exact, int64(599*math.MaxInt32))
	}
	e := NewEngine(Config{ML: 2 * 300 * 300})
	defer e.Close()
	if d, err := e.DiameterByRepeatedSquaring(w); err != nil || d != want {
		t.Fatalf("squaring diameter %d (%v), want %d", d, err, want)
	}
}

func TestMinPlusProductRespectsML(t *testing.T) {
	// ML = 1 leaves 1×1 blocks, and a round-1 group holding one entry of
	// each block already exceeds it: the squaring must fail before it
	// commits anything to the accounting.
	e := NewEngine(Config{ML: 1})
	defer e.Close()
	if _, err := e.Round([]Pair{{Key: 1}, {Key: 2}}, func(uint64, []Pair, Emitter) {}); err != nil {
		t.Fatal(err)
	}
	before := snap(e)
	if _, err := e.APSPByRepeatedSquaring(weighted(graph.Path(10), 3, 1)); !errors.Is(err, ErrLocalMemory) {
		t.Fatalf("want ErrLocalMemory, got %v", err)
	}
	if after := snap(e); after != before {
		t.Fatalf("failed squaring polluted accounting: %+v -> %+v", before, after)
	}
}

// The round-1 reducer multiplies its blocks in its shard's scratch, and a
// squaring on a warm engine writes its rounds into the engine's buffers: a
// dense 64×64 squaring (8×8 blocks, 288 key groups) allocates a handful of
// small objects (its occupancy table and closures), none per group and no
// pair buffer.
func TestMinPlusProductAllocsDoNotGrowWithGroups(t *testing.T) {
	const l = 64
	a := make([]int64, l*l)
	for i := 0; i < l; i++ {
		for j := 0; j < l; j++ {
			a[i*l+j] = int64((i+j)%7 + 1)
		}
	}
	open := allOpen(l)
	e := NewEngine(Config{Shards: 1})
	defer e.Close()
	square := func() {
		if _, err := e.square(a, l, open); err != nil {
			t.Fatal(err)
		}
	}
	square()
	// Thirty runs: the count is an integer mean, which one stray
	// allocation elsewhere in the process, or the engine's RoundStats log
	// growing, tips over when it is taken over a few runs.
	if allocs := testing.AllocsPerRun(30, square); allocs > 7 {
		t.Fatalf("a warm 64×64 squaring allocates %.0f times, want at most 7", allocs)
	}
}

// decodeSquaring turns fuzz bytes into a squaring input: data[0] picks ℓ ≤
// 40, data[1] the local memory (0, or 2 to 256: ML = 1 fits no round-1
// group) and data[2]'s low bit 1 or 4 shards. Every later byte triple is
// an edge (u mod ℓ, v mod ℓ) of weight w + 1, or MaxInt32 for w = 255;
// self-loops drop out, parallel edges keep their lightest weight, and
// nodes no edge touches stay isolated.
func decodeSquaring(data []byte) (*graph.Weighted, Config) {
	var head [3]byte
	data = data[copy(head[:], data):]
	l := int(head[0]) % 41
	cfg := Config{Shards: 1 + 3*int(head[2]&1)}
	if head[1] > 0 {
		cfg.ML = int64(head[1]) + 1
	}
	var edges [][2]graph.NodeID
	var ws []int32
	for ; l > 0 && len(data) >= 3; data = data[3:] {
		w := int32(data[2]) + 1
		if data[2] == 0xff {
			w = math.MaxInt32
		}
		edges = append(edges, [2]graph.NodeID{graph.NodeID(int(data[0]) % l), graph.NodeID(int(data[1]) % l)})
		ws = append(ws, w)
	}
	return graph.MustWeighted(l, edges, ws), cfg
}

// FuzzSquaringMatchesDijkstra diffs every row of APSPByRepeatedSquaring
// against the weighted engine's SSSP on small decoded graphs, across local
// memories (and so block sides and min-round trees) and shard counts.
func FuzzSquaringMatchesDijkstra(f *testing.F) {
	f.Add([]byte{1, 0, 0})
	f.Add([]byte{5, 0, 1, 0, 1, 3, 1, 2, 0xff, 2, 3, 1, 0, 3, 9})
	f.Add([]byte{37, 7, 0, 0, 1, 4, 1, 0, 2, 5, 6, 1, 6, 7, 0, 30, 31, 2, 31, 36, 0xff, 36, 0, 3})
	f.Add([]byte{40, 0, 1, 0, 1, 1, 1, 2, 1, 2, 3, 1, 3, 4, 1, 4, 5, 1, 5, 6, 1, 6, 7, 1, 7, 8, 1,
		8, 9, 1, 9, 10, 1, 10, 11, 1, 11, 12, 1, 12, 13, 1, 13, 14, 1, 14, 15, 1, 15, 16, 1, 16, 17, 1,
		0, 17, 40, 17, 0, 60, 20, 21, 2, 22, 23, 2, 39, 38, 9})
	f.Add([]byte{33, 1, 1, 3, 4, 5, 4, 3, 2, 4, 5, 0xff, 5, 6, 8, 6, 7, 0, 7, 8, 1, 8, 9, 2, 1, 2, 7, 2, 3, 6})
	f.Fuzz(func(t *testing.T, data []byte) {
		w, cfg := decodeSquaring(data)
		e := NewEngine(cfg)
		defer e.Close()
		mat, err := e.APSPByRepeatedSquaring(w)
		if err != nil {
			t.Fatalf("ℓ = %d, %+v: %v", w.NumNodes(), cfg, err)
		}
		l := w.NumNodes()
		dist, sssp := make([]int64, l), bsp.NewWeightedEngine(w, 1, 0)
		for u := 0; u < l; u++ {
			sssp.SSSP(graph.NodeID(u), dist)
			for v, want := range dist {
				if got := mat[u*l+v]; got != want {
					t.Fatalf("ℓ = %d, %+v: (%d,%d) = %d want %d", l, cfg, u, v, got, want)
				}
			}
		}
		if bs := wantBlockSide(cfg.ML, l); e.MaxReducerInput() > 2*bs*bs {
			t.Fatalf("ℓ = %d, %+v: a reducer took %d pairs, more than 2b² = %d", l, cfg, e.MaxReducerInput(), 2*bs*bs)
		}
	})
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
// matrix and its frontier, then each squaring's small objects as in
// TestMinPlusProductAllocsDoNotGrowWithGroups, and no pair buffer.
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
// shuffle volume and rounds the blocked squaring and the frontier take, and
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
