// Package pbfs provides the parallel breadth-first-search baseline used in
// the paper's Table 4 and Figure 1 comparisons.
//
// A BFS from any node u yields ecc(u), and 2·ecc(u) is an upper bound on
// the diameter within a factor two; that single-BFS bound is what the
// paper's BFS competitor reports. The computation takes Θ(∆) BSP rounds —
// exactly the cost profile the CLUSTER-based estimator improves on for
// long-diameter graphs. The BFS itself runs on the direction-optimizing
// engine, so on low-diameter graphs its aggregate communication drops well
// below the 2m arcs of the pure top-down execution.
package pbfs

import (
	"errors"
	"time"

	"repro/internal/bsp"
	"repro/internal/graph"
)

// Result reports a BFS-based diameter estimation.
type Result struct {
	// Source is the BFS root.
	Source graph.NodeID
	// Ecc is the eccentricity of Source (a lower bound on the diameter).
	Ecc int32
	// Upper is 2·Ecc, the certified upper bound reported as the estimate in
	// the paper's Table 4.
	Upper int32
	// Lower is the best known lower bound: Ecc.
	Lower int32
	// Dist holds the hop distances from Source (-1 = unreachable).
	Dist []int32
	// Stats counts BSP rounds (Θ(∆)) and messages (arcs scanned in either
	// direction; at most Θ(m) aggregate, less when the engine runs
	// bottom-up rounds).
	Stats bsp.Stats
	// Elapsed is the wall-clock time.
	Elapsed time.Duration
}

// Run is the paper's BFS competitor: one parallel BFS from src with the
// hybrid engine, reporting 2·ecc(src) as the diameter estimate.
func Run(g *graph.Graph, src graph.NodeID, workers int) (*Result, error) {
	return RunDirection(g, src, workers, bsp.DirAuto)
}

// RunDirection performs one parallel BFS from src with the traversal
// direction pinned (bsp.DirAuto selects the hybrid heuristic; DirPush is
// the pure top-down baseline the engine-mode benchmarks compare against).
// The distances are deterministic across worker counts.
func RunDirection(g *graph.Graph, src graph.NodeID, workers int, dir bsp.Direction) (*Result, error) {
	start := time.Now()
	n := g.NumNodes()
	if n == 0 {
		return nil, errors.New("pbfs: empty graph")
	}
	if src < 0 || int(src) >= n {
		return nil, errors.New("pbfs: source out of range")
	}
	e := bsp.NewEngine(g, workers)
	defer e.Close()
	e.SetDirection(dir)
	dist := make([]int32, n)
	ecc := e.BFS(src, dist)
	return &Result{
		Source:  src,
		Ecc:     ecc,
		Upper:   2 * ecc,
		Lower:   ecc,
		Dist:    dist,
		Stats:   e.Stats(),
		Elapsed: time.Since(start),
	}, nil
}
