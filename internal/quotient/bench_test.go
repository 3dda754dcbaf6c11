package quotient_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/quotient"
)

// BenchmarkBuildWeightedSocial times the contraction on the shape of the
// benchmark's `social` workload, two scales down so the 1x CI smoke stays
// quick: the largest component of RMAT(17,8,1) clustered at τ = 1. Run it
// with paired -count on two checkouts to iterate on the contraction without
// the 40 s harness; ns/arc is per CSR entry of G, crossing the share of
// edges that reach an Accumulator.
func BenchmarkBuildWeightedSocial(b *testing.B) {
	g, _ := graph.RMAT(17, 8, 1).LargestComponent()
	// Workers: 1 makes the clustering, and so the work, the same every run.
	cl, err := core.ClusterContext(b.Context(), g, 1, core.Options{Seed: 1, Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	k := cl.NumClusters()
	crossing := 0
	g.Edges(func(u, v graph.NodeID) bool {
		if cl.Owner[u] != cl.Owner[v] {
			crossing++
		}
		return true
	})
	for _, bc := range []struct {
		name    string
		workers int
	}{{"workers=1", 1}, {"workers=GOMAXPROCS", 0}} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := quotient.Contract(g, cl.Owner, cl.Dist, k, bc.workers); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(g.NumArcs()), "ns/arc")
			b.ReportMetric(float64(crossing)/float64(g.NumEdges()), "crossing")
		})
	}
}
