package core

import (
	"context"
	"reflect"
	"slices"
	"testing"

	"repro/internal/graph"
)

// workerSweepGraphs are two inputs large enough for Workers to matter: both
// span several of the contraction's 64 k-arc claims, and their growth
// frontiers carry enough arcs for pooled push rounds.
func workerSweepGraphs() map[string]*graph.Graph {
	rmat, _ := graph.RMAT(14, 8, 3).LargestComponent()
	return map[string]*graph.Graph{"rmat": rmat, "mesh": graph.Mesh(220, 220)}
}

// The three pipelines that grow a clustering and contract it — oracle,
// diameter, k-center merge — return the same tables, bounds and centers
// with Workers 1 and 8, growth included: each run clusters the graph itself
// at its own worker count.
func TestPostGrowthStagesAreWorkerInvariant(t *testing.T) {
	ctx := context.Background()
	for name, g := range workerSweepGraphs() {
		var k int
		type out struct {
			apsp    []uint32
			hops    []uint16
			diam    *DiameterResult
			centers []graph.NodeID
		}
		run := func(workers int) out {
			cl, err := ClusterContext(ctx, g, 4, Options{Seed: 5, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			k = cl.NumClusters() / 3
			o, err := OracleFromClustering(ctx, cl, Options{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			d, err := DiameterFromClustering(ctx, cl, workers)
			if err != nil {
				t.Fatal(err)
			}
			centers, err := mergeClustersToK(cl, k, workers)
			if err != nil {
				t.Fatal(err)
			}
			return out{o.apsp, o.hops, d, centers}
		}
		one, eight := run(1), run(8)
		if !slices.Equal(one.apsp, eight.apsp) || !slices.Equal(one.hops, eight.hops) {
			t.Errorf("%s: oracle tables differ between Workers 1 and 8", name)
		}
		if a, b := one.diam, eight.diam; a.DeltaC != b.DeltaC || a.DeltaCWeighted != b.DeltaCWeighted || a.Upper != b.Upper ||
			!reflect.DeepEqual(a.WeightedQuotient, b.WeightedQuotient) {
			t.Errorf("%s: diameter (∆C %d, ∆′C %d, upper %d) at Workers 1, (%d, %d, %d) at 8, or the quotients differ",
				name, a.DeltaC, a.DeltaCWeighted, a.Upper, b.DeltaC, b.DeltaCWeighted, b.Upper)
		}
		if !slices.Equal(one.centers, eight.centers) || len(one.centers) == 0 || len(one.centers) > k {
			t.Errorf("%s: merged to %d centers at Workers 1, %d at 8 (k = %d), or the lists differ",
				name, len(one.centers), len(eight.centers), k)
		}
	}
}
