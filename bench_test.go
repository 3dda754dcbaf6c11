// Residual benches: what benchmark/layers.go does not already time. That
// module measures every serving, oracle, k-center, BFS, growth and MR
// operation against a paired reference; what is left here is the paper's
// Section 6 table and figure harness (internal/expt, the code cmd/tables
// runs at full scale), the competitors the benchmark has no workload for
// (MPX, HADI/ANF, CLUSTER2) and the engine's pinned
// directions and observer seam. CI runs each once as a rot check.
package repro_test

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/anf"
	"repro/internal/bsp"
	"repro/internal/core"
	"repro/internal/expt"
	"repro/internal/graph"
	"repro/internal/mpx"
	"repro/internal/mr"
	"repro/internal/pbfs"
)

// benchCfg keeps per-iteration work around a second per dataset.
var benchCfg = expt.Config{Scale: 0.25, Seed: 42}

// Shared graphs for the ablation benches, built once.
var (
	benchOnce   sync.Once
	benchMesh   *graph.Graph // long diameter
	benchSocial *graph.Graph // short diameter
	benchRoad   *graph.Graph
)

func benchGraphs() (*graph.Graph, *graph.Graph, *graph.Graph) {
	benchOnce.Do(func() {
		benchMesh = graph.Mesh(150, 150)
		benchSocial = graph.BarabasiAlbert(30000, 8, 7)
		benchRoad = graph.RoadLike(130, 130, 0.4, 9)
	})
	return benchMesh, benchSocial, benchRoad
}

// --- Table 1: dataset construction and characterization ---

func BenchmarkTable1Datasets(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := expt.Table1(benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Table 2: CLUSTER vs MPX decomposition quality ---

func BenchmarkTable2ClusterVsMPX(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := expt.Table2(b.Context(), benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Table 3: diameter approximation quality at two granularities ---

func BenchmarkTable3DiameterQuality(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := expt.Table3(b.Context(), benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Table 4: estimator comparison; HADI is the one competitor the
// benchmark module does not time on its own ---

func BenchmarkTable4HADI(b *testing.B) {
	mesh, _, _ := benchGraphs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := expt.HADICost(b.Context(), benchCfg, mesh); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable4FullTable(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := expt.Table4(b.Context(), benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 1: tail experiment ---

func BenchmarkFigure1Series(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := expt.Figure1(b.Context(), benchCfg, []int{0, 4, 10}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Section 5 validation: growth steps on the MR simulator ---

// BenchmarkMRGrowStep times the Lemma 3 growth of expt.MRModel alone, at
// its Scale 0.4 / Seed 7 shape: a 26×26 mesh, the centres of a ~40-cluster
// decomposition, and one engine with ML = n, all built before the timer
// starts. Each iteration grows a fresh GrowState to its fixpoint with
// mr.Engine.Grow; the squaring that follows it in MRModel has its own
// benchmark (BenchmarkDiameterByRepeatedSquaring).
func BenchmarkMRGrowStep(b *testing.B) {
	g := graph.Mesh(26, 26)
	_, cl, err := core.TauForTargetClusters(b.Context(), g, 40, 0.5, core.Options{Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	eng := mr.NewEngine(mr.Config{ML: int64(g.NumNodes())})
	defer eng.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		state := mr.NewGrowState(g.NumNodes(), cl.Centers)
		b.StartTimer()
		if _, err := eng.Grow(g, state); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(eng.Rounds())/float64(b.N), "rounds/op")
	b.ReportMetric(float64(eng.TotalShuffled())/float64(b.N), "pairs/op")
}

// --- Ablations ---

// CLUSTER vs CLUSTER2: the cost of the theory-faithful variant.
func BenchmarkAblationCluster2(b *testing.B) {
	_, _, road := benchGraphs()
	b.Run("cluster", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.ClusterContext(b.Context(), road, 8, core.Options{Seed: 2}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cluster2", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.Cluster2(b.Context(), road, 8, core.Options{Seed: 2}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// Raw decomposition throughput of the two decomposition algorithms.
func BenchmarkAblationDecomposers(b *testing.B) {
	mesh, _, _ := benchGraphs()
	b.Run("cluster", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.ClusterContext(b.Context(), mesh, 16, core.Options{Seed: 3}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("mpx", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := mpx.Decompose(b.Context(), mesh, mpx.Options{Beta: 0.3, Seed: 3}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// Engine modes: forced top-down vs the hybrid direction-optimizing
// traversal, on the two diameter regimes. The mesh (high diameter, thin
// frontiers) should show parity — the hybrid stays top-down — while the
// G(n, p) graph (low diameter, exploding frontiers) is where bottom-up
// rounds cut the arcs scanned by several x. Each sub-bench reports the
// arcs-scanned Stats.Messages of one full BFS alongside ns/op.
func BenchmarkEngineModesBFS(b *testing.B) {
	mesh, _, _ := benchGraphs()
	gnp := graph.ErdosRenyi(50000, 500000, 3)
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{{"mesh", mesh}, {"gnp", gnp}} {
		for _, mode := range []struct {
			name string
			dir  bsp.Direction
		}{{"topdown", bsp.DirPush}, {"hybrid", bsp.DirAuto}} {
			b.Run(tc.name+"/"+mode.name, func(b *testing.B) {
				var arcs int64
				for i := 0; i < b.N; i++ {
					res, err := pbfs.RunDirection(tc.g, 0, 0, mode.dir)
					if err != nil {
						b.Fatal(err)
					}
					arcs = res.Stats.Messages
				}
				b.ReportMetric(float64(arcs), "arcs")
			})
		}
	}
}

// The same comparison for the CLUSTER decomposition, whose growth phase
// saturates the graph and therefore benefits from bottom-up rounds once
// the combined cluster frontier dominates the uncovered remainder.
func BenchmarkEngineModesCluster(b *testing.B) {
	gnp := graph.ErdosRenyi(50000, 500000, 3)
	for _, mode := range []struct {
		name string
		dir  bsp.Direction
	}{{"topdown", bsp.DirPush}, {"hybrid", bsp.DirAuto}} {
		b.Run(mode.name, func(b *testing.B) {
			var arcs int64
			for i := 0; i < b.N; i++ {
				cl, err := core.ClusterContext(b.Context(), gnp, 16, core.Options{Seed: 1, Direction: mode.dir})
				if err != nil {
					b.Fatal(err)
				}
				arcs = cl.Stats.Messages
			}
			b.ReportMetric(float64(arcs), "arcs")
		})
	}
}

// BenchmarkEngineObserver prices the progress-hook seam itself: the nil
// case is the default everyone but /builds runs (one predicate per barrier,
// no delta materialized) and must show parity with the pre-hook engine —
// BenchmarkEngineModesBFS measures that same nil path end to end — while
// the counting case is the full serve-tier wiring (snapshot, subtract,
// callback) and bounds what a /metrics-instrumented build pays per barrier.
func BenchmarkEngineObserver(b *testing.B) {
	mesh, _, _ := benchGraphs()
	var sink atomic.Int64
	for _, tc := range []struct {
		name string
		obs  bsp.Observer
	}{
		{"nil", nil},
		{"counting", func(d bsp.Stats) { sink.Add(d.Messages) }},
	} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.ClusterContext(b.Context(), mesh, 16, core.Options{Seed: 1, Observer: tc.obs}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Baseline estimator kernel in isolation.
func BenchmarkKernelANF(b *testing.B) {
	_, social, _ := benchGraphs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := anf.Run(b.Context(), social, anf.Options{K: 32, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func benchName(k string, v int) string {
	return fmt.Sprintf("%s=%d", k, v)
}
