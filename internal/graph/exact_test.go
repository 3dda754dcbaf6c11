package graph

import (
	"testing"

	"repro/internal/rng"
)

// Regression: the original double-sweep midpoint walk could land on a grid
// corner (walking a boundary geodesic), making iFUB scan half the mesh.
// The 4-sweep root (argmin of max distance to three extremes) must certify
// grid-like graphs within a handful of searches.

func TestExactDiameterMeshSmallBudget(t *testing.T) {
	g := Mesh(120, 120)
	d, exact := g.ExactDiameter(64)
	if !exact {
		t.Fatal("mesh not certified within 64 BFS — root selection regressed")
	}
	if d != 238 {
		t.Fatalf("mesh diameter %d want 238", d)
	}
}

func TestExactDiameterRoadSmallBudget(t *testing.T) {
	g := RoadLike(80, 80, 0.4, 103)
	d, exact := g.ExactDiameter(1024)
	if !exact {
		t.Fatal("road-like graph not certified within 1024 BFS")
	}
	if want := g.DiameterExhaustive(); d != want {
		t.Fatalf("diameter %d want %d", d, want)
	}
}

func TestExactDiameterWeightedMeshSmallBudget(t *testing.T) {
	g := Mesh(60, 60)
	wg := unitWeighted(g)
	d, exact := wg.ExactDiameterWeighted(64)
	if !exact {
		t.Fatal("weighted mesh not certified within 64 searches")
	}
	if d != 118 {
		t.Fatalf("weighted mesh diameter %d want 118", d)
	}
}

// disjointUnion places the parts side by side, renumbering each after the
// previous one, and appends `isolated` nodes with no edges.
func disjointUnion(isolated int, parts ...*Graph) *Graph {
	b := NewBuilder(0)
	off := NodeID(0)
	for _, p := range parts {
		b.Grow(int(off) + p.NumNodes())
		p.Edges(func(u, v NodeID) bool { b.AddEdge(off+u, off+v); return true })
		off += NodeID(p.NumNodes())
	}
	b.Grow(int(off) + isolated)
	return b.Build()
}

// The one iFUB against exhaustive APSP, for both metrics, over every graph
// shape the repository feeds it: a row's budget is the search cap (0 =
// unlimited) and exact says whether that cap suffices. Under unit weights
// the weighted adapter must reproduce the unweighted run search for search
// — same bound, same certification, budget rows included — and under
// random weights it must match exhaustive Dijkstra.
func TestExactDiameterDifferential(t *testing.T) {
	union := disjointUnion(2, Mesh(12, 12), Cycle(40), Path(30))
	for _, tc := range []struct {
		name   string
		g      *Graph
		budget int
		exact  bool
	}{
		{"mesh", Mesh(30, 30), 64, true},
		// Extremely skewed aspect ratio stresses the root selection.
		{"rect-mesh", Mesh(200, 5), 64, true},
		{"road", RoadLike(30, 30, 0.4, 103), 0, true},
		{"gnp", ErdosRenyi(300, 450, 5), 0, true},
		// Every cycle node is equivalent: ecc == lower everywhere, so iFUB
		// certifies although the levels reach n/2.
		{"cycle", Cycle(200), 0, true},
		{"star", Star(50), 16, true},
		// K_n is iFUB's worst case: every node sits at level 1 and the level
		// bound 2 exceeds the diameter 1, so all n nodes must be swept.
		{"complete", Complete(30), 64, true},
		{"single", NewBuilder(1).Build(), 0, true},
		{"empty", NewBuilder(0).Build(), 0, true},
		{"union", union, 0, true},
		{"mesh-budget", Mesh(20, 20), 2, false},
		{"union-budget", union, 8, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			truth := tc.g.DiameterExhaustive()
			d, exact := tc.g.ExactDiameter(tc.budget)
			if exact != tc.exact || d > truth || (exact && d != truth) {
				t.Fatalf("ExactDiameter(%d) = (%d, %v), want exact=%v against truth %d", tc.budget, d, exact, tc.exact, truth)
			}
			wd, wexact := unitWeighted(tc.g).ExactDiameterWeighted(tc.budget)
			if wd != int64(d) || wexact != exact {
				t.Fatalf("unit weights: weighted (%d, %v) differs from unweighted (%d, %v)", wd, wexact, d, exact)
			}
			edges := tc.g.EdgeList()
			ws := make([]int32, len(edges))
			r := rng.New(uint64(len(edges)) + 17)
			for i := range ws {
				ws[i] = int32(1 + r.Intn(9))
			}
			wg := MustWeighted(tc.g.NumNodes(), edges, ws)
			wtruth := wg.DiameterExhaustiveWeighted()
			wd, wexact = wg.ExactDiameterWeighted(tc.budget)
			if wexact != tc.exact || wd > wtruth || (wexact && wd != wtruth) {
				t.Fatalf("ExactDiameterWeighted(%d) = (%d, %v), want exact=%v against truth %d", tc.budget, wd, wexact, tc.exact, wtruth)
			}
		})
	}
}

// The search budget is one total, not one per component: three components
// that each certify alone within B searches cannot all be certified by a
// single run capped at B, because the 4-sweep and the root search alone
// cost six searches per non-trivial component.
func TestExactDiameterBudgetSharedAcrossComponents(t *testing.T) {
	const B = 8
	parts := []*Graph{Mesh(6, 6), BinaryTree(31), Path(25)}
	for i, p := range parts {
		if _, exact := p.ExactDiameter(B); !exact {
			t.Fatalf("component %d alone is not certified within %d searches; pick an easier fixture", i, B)
		}
	}
	g := disjointUnion(0, parts...)
	truth := g.DiameterExhaustive()
	for _, metric := range []struct {
		name string
		run  func(budget int) (int64, bool)
	}{
		{"unweighted", func(b int) (int64, bool) { d, ex := g.ExactDiameter(b); return int64(d), ex }},
		{"weighted", func(b int) (int64, bool) { return unitWeighted(g).ExactDiameterWeighted(b) }},
	} {
		if d, exact := metric.run(B); exact || d > int64(truth) {
			t.Errorf("%s: budget %d over three components gave (%d, exact=%v); the budget must be shared (truth %d)", metric.name, B, d, exact, truth)
		}
		if d, exact := metric.run(3 * B); !exact || d != int64(truth) {
			t.Errorf("%s: budget %d gave (%d, %v), want (%d, true)", metric.name, 3*B, d, exact, truth)
		}
	}
}
