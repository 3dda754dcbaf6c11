package core

import (
	"errors"
	"math"

	"repro/internal/bsp"
)

// Options configures the randomized decomposition algorithms.
// The zero value selects paper-faithful defaults.
type Options struct {
	// Seed drives every random choice. Runs with equal seeds produce
	// identical clusterings — centers, owners and distances — regardless
	// of Workers and Direction: per-node coins are hash-based, and a node
	// that several clusters reach in the same round goes to the engine's
	// one deterministic winner (bsp.Engine.Step).
	Seed uint64

	// Workers is the parallelism of the BSP substrate; non-positive selects
	// runtime.GOMAXPROCS(0).
	Workers int

	// Direction pins the traversal engine's superstep direction. The zero
	// value (bsp.DirAuto) selects the hybrid push/pull switching; DirPush
	// forces the pure top-down baseline (used by the engine-mode
	// benchmarks), DirPull forces bottom-up.
	Direction bsp.Direction

	// Observer, when non-nil, is installed on every traversal engine the
	// build creates and receives live progress deltas at superstep
	// barriers (see bsp.Observer) — the serving layer's window into a
	// running multi-second build. The oracle's APSP fan-out calls it from
	// every worker goroutine, once per completed block of sources, so it
	// MUST be safe for concurrent use. It observes progress only: it has
	// no effect on the computation, and nil (the default) costs one
	// branch per round.
	Observer bsp.Observer
}

// ErrInfeasible is wrapped by every build rejection that is a property of
// the graph and the requested parameters, so that no retry can cure it: k
// below the number of components (KCenter, EvalCenters), a decomposition
// finer than the oracle's cluster cap or wider than its table cells
// (OracleFromClustering). Callers that retry or count failures — the serving
// tier's circuit breaker — treat it as the client's error, not the build's.
var ErrInfeasible = errors.New("core: infeasible parameters")

// log2n returns log2(n) clamped below at 1, the "log n" of the paper's
// pseudocode (base-2 logarithms per its footnote).
func log2n(n int) float64 {
	if n < 2 {
		return 1
	}
	return math.Log2(float64(n))
}
