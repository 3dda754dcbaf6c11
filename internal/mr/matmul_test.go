package mr

import (
	"context"
	"testing"

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

func TestMinPlusProductMatchesNaive(t *testing.T) {
	r := rng.New(3)
	l := 9
	a := make([]int64, l*l)
	b := make([]int64, l*l)
	for i := range a {
		a[i] = int64(r.Intn(20))
		b[i] = int64(r.Intn(20))
		if r.Bernoulli(0.2) {
			a[i] = Inf
		}
		if r.Bernoulli(0.2) {
			b[i] = Inf
		}
	}
	e := NewEngine(Config{})
	got, err := e.MinPlusProduct(a, b, l)
	if err != nil {
		t.Fatal(err)
	}
	want := naiveMinPlus(a, b, l)
	for i := range want {
		// Entries that the naive product derives only from Inf+x sums stay
		// at Inf in both (emits skip Inf inputs).
		w := want[i]
		if w >= Inf {
			w = Inf
		}
		if got[i] != w {
			t.Fatalf("C[%d]=%d want %d", i, got[i], w)
		}
	}
	if e.Rounds() != 2 {
		t.Fatalf("product took %d rounds, want 2", e.Rounds())
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
	sq, err := e.MinPlusSquare(a, l)
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

func TestAPSPMatchesDijkstra(t *testing.T) {
	g := graph.RoadLike(6, 6, 0.5, 2)
	edges := g.EdgeList()
	r := rng.New(5)
	weights := make([]int32, len(edges))
	for i := range weights {
		weights[i] = int32(1 + r.Intn(7))
	}
	w := graph.MustWeighted(g.NumNodes(), edges, weights)
	e := NewEngine(Config{})
	mat, err := e.APSPByRepeatedSquaring(w)
	if err != nil {
		t.Fatal(err)
	}
	l := w.NumNodes()
	for u := 0; u < l; u++ {
		dij := w.Dijkstra(graph.NodeID(u))
		for v := 0; v < l; v++ {
			want := dij[v]
			got := mat[u*l+v]
			if want == graph.InfDist {
				if got < Inf {
					t.Fatalf("(%d,%d): got %d want unreachable", u, v, got)
				}
				continue
			}
			if got != want {
				t.Fatalf("(%d,%d): got %d want %d", u, v, got, want)
			}
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
	// log2(20) squarings ~ 5, each 2 rounds.
	if e.Rounds() < 8 || e.Rounds() > 12 {
		t.Fatalf("repeated squaring rounds %d outside expected band", e.Rounds())
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
}

func TestMinPlusProductErrors(t *testing.T) {
	e := NewEngine(Config{})
	if _, err := e.MinPlusProduct(make([]int64, 3), make([]int64, 4), 2); err == nil {
		t.Fatal("size mismatch should fail")
	}
}

func TestMinPlusProductRespectsML(t *testing.T) {
	// With tiny ML the join groups (2ℓ pairs) must trip the local memory
	// guard, demonstrating the model's accounting.
	l := 10
	a := make([]int64, l*l)
	e := NewEngine(Config{ML: 4})
	if _, err := e.MinPlusProduct(a, a, l); err == nil {
		t.Fatal("expected ML violation")
	}
}
