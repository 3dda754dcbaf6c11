package repro_test

import (
	"path/filepath"
	"testing"

	"repro"
)

// Facade-level tests: exercise the whole public API the way a downstream
// user would, end to end.

func TestFacadeClusterPipeline(t *testing.T) {
	g := repro.Mesh(40, 40)
	cl, err := repro.Cluster(t.Context(), g, 8, repro.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if cl.NumClusters() < 8 {
		t.Fatalf("too few clusters: %d", cl.NumClusters())
	}
	if err := cl.Validate(); err != nil {
		t.Fatal(err)
	}
	q, err := repro.QuotientGraph(cl)
	if err != nil {
		t.Fatal(err)
	}
	if q.NumNodes() != cl.NumClusters() {
		t.Fatal("quotient size mismatch")
	}
}

func TestFacadeDiameterBracketsTruth(t *testing.T) {
	g := repro.RoadLike(40, 40, 0.4, 3)
	res, err := repro.ApproxDiameter(t.Context(), g, repro.DiameterOptions{Options: repro.Options{Seed: 2}})
	if err != nil {
		t.Fatal(err)
	}
	truth, _ := g.ExactDiameter(0)
	if res.DeltaC > int64(truth) || res.Upper < int64(truth) {
		t.Fatalf("bounds [%d,%d] miss %d", res.DeltaC, res.Upper, truth)
	}
}

func TestFacadeKCenter(t *testing.T) {
	g := repro.Mesh(25, 25)
	res, err := repro.KCenter(t.Context(), g, 12, repro.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Centers) == 0 || len(res.Centers) > 12 {
		t.Fatalf("%d centers", len(res.Centers))
	}
	_, base, err := repro.GonzalezKCenter(g, 12, 0)
	if err != nil {
		t.Fatal(err)
	}
	if base <= 0 || res.Radius <= 0 {
		t.Fatal("degenerate radii")
	}
}

func TestFacadeBaselines(t *testing.T) {
	g := repro.BarabasiAlbert(2000, 4, 4)
	cl, err := repro.MPXDecompose(t.Context(), g, repro.MPXOptions{Beta: 0.5, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Validate(); err != nil {
		t.Fatal(err)
	}
	bfs, err := repro.BFSDiameter(g, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	hadi, err := repro.ANFDiameter(t.Context(), g, repro.ANFOptions{K: 16, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	truth, _ := g.ExactDiameter(0)
	if bfs.Upper < truth {
		t.Fatalf("BFS upper %d < ∆ %d", bfs.Upper, truth)
	}
	if hadi.DiameterEstimate > truth {
		t.Fatalf("HADI estimate %d > ∆ %d", hadi.DiameterEstimate, truth)
	}
}

func TestFacadeOracle(t *testing.T) {
	g := repro.Mesh(20, 20)
	o, err := repro.BuildOracle(t.Context(), g, 2, false, repro.Options{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	d := g.BFS(0)
	if est := o.Query(0, 399); est < int64(d[399]) {
		t.Fatalf("oracle %d below truth %d", est, d[399])
	}
}

func TestFacadeGraphIO(t *testing.T) {
	g := repro.Cycle(20)
	path := filepath.Join(t.TempDir(), "g.txt")
	if err := repro.SaveEdgeList(path, g); err != nil {
		t.Fatal(err)
	}
	g2, err := repro.LoadEdgeList(path)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != 20 {
		t.Fatal("round trip lost edges")
	}
}

func TestFacadeBuilderAndEdges(t *testing.T) {
	b := repro.NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	g := b.Build()
	if g.NumEdges() != 2 {
		t.Fatal("builder failed")
	}
	g2 := repro.FromEdges(3, [][2]repro.NodeID{{0, 1}, {1, 2}})
	if g2.NumEdges() != 2 {
		t.Fatal("FromEdges failed")
	}
}

func TestFacadeCluster2(t *testing.T) {
	g := repro.Mesh(20, 20)
	cl, err := repro.Cluster2(t.Context(), g, 4, repro.Options{Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeExperimentsSmoke(t *testing.T) {
	cfg := repro.ExperimentConfig{Scale: 0.12, Seed: 1}
	rows, err := repro.Table1(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no table 1 rows")
	}
	_ = repro.FormatTable1(rows)
}
