package graph

import (
	"fmt"
	"slices"
	"testing"
)

func TestMeshProperties(t *testing.T) {
	g := Mesh(10, 7)
	if g.NumNodes() != 70 {
		t.Fatalf("n=%d", g.NumNodes())
	}
	wantEdges := 9*7 + 10*6
	if g.NumEdges() != wantEdges {
		t.Fatalf("m=%d want %d", g.NumEdges(), wantEdges)
	}
	if !g.IsConnected() {
		t.Fatal("mesh disconnected")
	}
	if d := g.DiameterExhaustive(); d != 15 {
		t.Fatalf("mesh diameter %d want 15", d)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestMesh1x1(t *testing.T) {
	g := Mesh(1, 1)
	if g.NumNodes() != 1 || g.NumEdges() != 0 {
		t.Fatal("1x1 mesh wrong")
	}
}

func TestBarabasiAlbertProperties(t *testing.T) {
	g := BarabasiAlbert(2000, 4, 42)
	if g.NumNodes() != 2000 {
		t.Fatalf("n=%d", g.NumNodes())
	}
	if !g.IsConnected() {
		t.Fatal("BA graph must be connected by construction")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Heavy tail: the max degree should far exceed the average.
	s := Summarize(g)
	if float64(s.MaxDegree) < 4*s.AvgDegree {
		t.Fatalf("BA degrees look uniform: max=%d avg=%.1f", s.MaxDegree, s.AvgDegree)
	}
	// Social-like: small diameter.
	_, lb := g.TwoSweep(0)
	if lb > 12 {
		t.Fatalf("BA graph diameter lower bound %d suspiciously large", lb)
	}
}

func TestBarabasiAlbertDeterministic(t *testing.T) {
	a := BarabasiAlbert(500, 3, 7)
	b := BarabasiAlbert(500, 3, 7)
	if a.NumEdges() != b.NumEdges() {
		t.Fatal("same seed produced different graphs")
	}
	for u := NodeID(0); u < 500; u++ {
		if a.Degree(u) != b.Degree(u) {
			t.Fatal("same seed produced different degrees")
		}
	}
	c := BarabasiAlbert(500, 3, 8)
	diff := false
	for u := NodeID(0); u < 500; u++ {
		if a.Degree(u) != c.Degree(u) {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("different seeds produced identical graphs")
	}
}

func TestErdosRenyiEdgeCount(t *testing.T) {
	g := ErdosRenyi(100, 300, 5)
	if g.NumEdges() != 300 {
		t.Fatalf("m=%d want 300", g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestErdosRenyiClampsToMaxEdges(t *testing.T) {
	g := ErdosRenyi(5, 100, 1)
	if g.NumEdges() != 10 {
		t.Fatalf("m=%d want 10 (complete K5)", g.NumEdges())
	}
}

func TestRMATProperties(t *testing.T) {
	g := RMAT(12, 8, 3)
	if g.NumNodes() != 1<<12 {
		t.Fatalf("n=%d", g.NumNodes())
	}
	if g.NumEdges() == 0 {
		t.Fatal("RMAT produced no edges")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	lc, _ := g.LargestComponent()
	if lc.NumNodes() < g.NumNodes()/4 {
		t.Fatalf("RMAT largest component only %d of %d", lc.NumNodes(), g.NumNodes())
	}
}

func TestRandomRegularProperties(t *testing.T) {
	g := RandomRegular(1000, 4, 9)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Configuration model drops a few conflicting pairings; most nodes keep
	// full degree.
	full := 0
	for u := NodeID(0); u < 1000; u++ {
		if g.Degree(u) == 4 {
			full++
		}
		if g.Degree(u) > 4 {
			t.Fatalf("degree(%d)=%d exceeds 4", u, g.Degree(u))
		}
	}
	if full < 900 {
		t.Fatalf("only %d/1000 nodes have full degree", full)
	}
	lc, _ := g.LargestComponent()
	if lc.NumNodes() < 990 {
		t.Fatalf("random regular graph essentially disconnected: %d", lc.NumNodes())
	}
}

func TestExpanderPathShape(t *testing.T) {
	g := ExpanderPath(2000, 0, 4)
	if !g.IsConnected() {
		t.Fatal("expander+path disconnected")
	}
	// The diameter must be at least the tail length (~sqrt(2000) ≈ 44).
	_, lb := g.TwoSweep(0)
	if lb < 40 {
		t.Fatalf("expander+path diameter lower bound %d, want >= 40", lb)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRoadLikeProperties(t *testing.T) {
	g := RoadLike(40, 40, 0.4, 11)
	if g.NumNodes() != 1600 {
		t.Fatalf("n=%d", g.NumNodes())
	}
	if !g.IsConnected() {
		t.Fatal("road-like graph must stay connected (spanning tree kept)")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Long diameter: at least the grid diameter.
	d, exact := g.ExactDiameter(0)
	if !exact {
		t.Fatal("diameter not exact")
	}
	if d < 78 {
		t.Fatalf("road-like diameter %d, want >= grid diameter 78", d)
	}
	// Bounded degree.
	s := Summarize(g)
	if s.MaxDegree > 4 {
		t.Fatalf("road-like max degree %d > 4", s.MaxDegree)
	}
}

func TestRoadLikeDeterministic(t *testing.T) {
	a := RoadLike(20, 20, 0.3, 5)
	b := RoadLike(20, 20, 0.3, 5)
	if a.NumEdges() != b.NumEdges() {
		t.Fatal("same seed, different graphs")
	}
}

func TestAppendTail(t *testing.T) {
	g := Cycle(10)
	g2 := AppendTail(g, 3, 7)
	if g2.NumNodes() != 17 {
		t.Fatalf("n=%d want 17", g2.NumNodes())
	}
	if g2.NumEdges() != g.NumEdges()+7 {
		t.Fatalf("m=%d", g2.NumEdges())
	}
	if !g2.IsConnected() {
		t.Fatal("tail disconnected")
	}
	// Diameter grows to tail end: dist from node opposite 3 on the cycle to
	// the tail tip is 5 + 7.
	if d := g2.DiameterExhaustive(); d != 12 {
		t.Fatalf("diameter %d want 12", d)
	}
	if err := g2.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAppendTailZeroLength(t *testing.T) {
	g := Path(5)
	g2 := AppendTail(g, 0, 0)
	if g2.NumNodes() != 5 || g2.NumEdges() != 4 {
		t.Fatal("zero-length tail changed the graph")
	}
}

func TestPathCycleStarCompleteSmall(t *testing.T) {
	if Path(1).NumEdges() != 0 {
		t.Fatal("Path(1)")
	}
	if Star(1).NumEdges() != 0 {
		t.Fatal("Star(1)")
	}
	if Complete(3).NumEdges() != 3 {
		t.Fatal("Complete(3)")
	}
	if Cycle(3).NumEdges() != 3 {
		t.Fatal("Cycle(3)")
	}
}

// A size the generator cannot build, or a spec that does not parse, is an
// error naming it, not a panic; the smallest sizes it can build still
// build.
func TestGenerateRefusesSizesItsGeneratorCannotBuild(t *testing.T) {
	for _, spec := range []string{"mesh:0x5", "road:1x1", "ba:0", "ba:10:0", "ba:10:10", "rmat:40", "rmat:-1", "er:-5",
		"rmat:4:-1", "er:10:-5", "expanderpath:5", fmt.Sprintf("mesh:%dx2", 1<<30+1),
		"", "grid:3x3", "mesh", "mesh:3", "mesh:3x", "mesh:ax3", "road:5x5:x", "ba:1e3", "rmat:4:8.5",
		"mesh:3x3:junk", "mesh:3x3:junk:more", "rmat:4:2:9", "er:10:2:x", "expanderpath:100:7", "ba:10:2:1",
		"road:5x5:0.4:1", "road:5x5:NaN", "road:5x5:-3", "road:5x5:1.5", "road:5x5:Inf"} {
		if g, err := Generate(spec, 1); err == nil {
			t.Errorf("Generate(%q) built %d nodes, want an error", spec, g.NumNodes())
		}
	}
	for _, spec := range []string{"mesh:1x1", "road:2x2", "ba:2:1", "rmat:0", "er:0", "expanderpath:6", "road:2x2:0", "road:2x2:1"} {
		if _, err := Generate(spec, 1); err != nil {
			t.Errorf("Generate(%q): %v", spec, err)
		}
	}
}

// A spec builds exactly the graph of the generator call it names.
func TestGenerateMatchesGenerators(t *testing.T) {
	for _, seed := range []uint64{1, 7} {
		for spec, want := range map[string]*Graph{
			"mesh:12x9":        Mesh(12, 9),
			"road:20x15:0.3":   RoadLike(20, 15, 0.3, seed),
			"road:20x15":       RoadLike(20, 15, 0.4, seed),
			"ba:500:3":         BarabasiAlbert(500, 3, seed),
			"rmat:9:4":         RMAT(9, 4, seed),
			"er:300:5":         ErdosRenyi(300, 750, seed),
			"expanderpath:200": ExpanderPath(200, 0, seed),
		} {
			g, err := Generate(spec, seed)
			if err != nil {
				t.Fatalf("Generate(%q, %d): %v", spec, seed, err)
			}
			if !slices.Equal(g.xadj, want.xadj) || !slices.Equal(g.adj, want.adj) {
				t.Errorf("Generate(%q, %d): n=%d m=%d, direct call n=%d m=%d, or another CSR",
					spec, seed, g.NumNodes(), g.NumEdges(), want.NumNodes(), want.NumEdges())
			}
		}
	}
}
