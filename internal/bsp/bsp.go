// Package bsp provides the bulk-synchronous-parallel substrate on which the
// repository's distributed algorithms run.
//
// The paper's algorithms (CLUSTER, CLUSTER2, MPX, parallel BFS, HADI) are
// all sequences of synchronous rounds: in each round every frontier node
// sends a message over each incident edge, messages are resolved at the
// receivers, and a new frontier forms. On the authors' Spark cluster one
// round is one communication round; here one round is one superstep of the
// direction-optimizing Engine — a persistent worker pool that keeps the
// frontier in both sparse and dense (bitmap) form and switches per round
// between top-down push (frontier nodes offer their arcs) and bottom-up
// pull (unvisited nodes scan for a frontier neighbor to adopt), the
// Beamer-style hybrid that cuts aggregate arc scans by an order of
// magnitude on low-diameter graphs. The engine counts rounds and message
// volume (arcs scanned, in whichever direction the round ran) — the two
// quantities the paper's cost analysis and Section 6 experiments are
// phrased in.
//
// When several frontier nodes reach the same node in one round the paper
// lets "only one of them, arbitrarily chosen" succeed. The Engine makes the
// choice itself and makes it the same way every time — see Engine.Step — so
// the nodes claimed in a round, and who claimed each, do not depend on the
// direction, the worker count or the goroutine schedule.
//
// Weighted iFUB (graph.ExactDiameterWeighted, the exact diameter ∆′C of a
// weighted quotient) and the oracle's quotient APSP (the core tables of
// graph.CoreTable) run their single-source searches on WeightedEngine, a
// sequential radix-heap search: the paper solves the quotient inside one
// reducer's local memory, and the quotients are small — see weighted.go.
// Stats.Relaxations and Stats.Buckets are its counters, the weighted
// counterpart of Messages and Rounds.
//
// Every parallel pass of Engine — push and pull rounds, a push round's
// barrier pass, Engine.For — runs on one loop, Pool.Claim, in which the
// workers take blocks of an index range from a shared cursor. The worker
// count sets how fast a round runs, never which code runs it; the one
// branch on it is Claim's own rule that a single worker, or a range of one
// block, runs on the caller. A panic on any worker surfaces on the caller
// after the barrier.
package bsp

import "runtime"

// NodeID identifies a node; it aliases int32 exactly as graph.NodeID does,
// so the two are interchangeable without this package importing graph.
type NodeID = int32

// Stats accumulates the cost of a BSP computation.
type Stats struct {
	// Rounds is the number of supersteps (communication rounds) executed.
	Rounds int
	// Messages is the number of arcs scanned — the aggregate communication
	// volume in edge-message units, counting both push-direction scans from
	// frontier nodes and pull-direction probes from unvisited nodes.
	Messages int64
	// MaxFrontier is the largest frontier observed in any round.
	MaxFrontier int
	// PullRounds is how many of the supersteps ran bottom-up.
	PullRounds int
	// Relaxations is the number of arcs WeightedEngine scanned from settled
	// nodes — the weighted counterpart of Messages, counting every
	// (distance + weight) offer whether or not it lowered a distance. Each
	// reached node is settled once, so a search scans its component's arcs
	// exactly once; the engine adds the same count to Messages. Zero for
	// unweighted runs.
	Relaxations int64
	// Buckets is the number of distinct finite distances WeightedEngine
	// settled, as the oracle's APSPStats counts them; the engine adds the
	// same count to Rounds, one round per settled distance. Zero for
	// unweighted runs.
	Buckets int
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.Rounds += other.Rounds
	s.Messages += other.Messages
	s.PullRounds += other.PullRounds
	s.Relaxations += other.Relaxations
	s.Buckets += other.Buckets
	if other.MaxFrontier > s.MaxFrontier {
		s.MaxFrontier = other.MaxFrontier
	}
}

// RoundStat records one superstep, as Engine.Step returns it. Arcs are the
// kernel's own scans, not a client's in its Step callback.
type RoundStat struct {
	Frontier int       // frontier size entering the round
	Claimed  int       // nodes claimed during the round
	Arcs     int64     // arcs scanned during the round
	Dir      Direction // direction the superstep ran in
}

// Observer receives live progress from a running engine, as Stats deltas
// emitted at Engine's superstep barriers — the window a serving layer
// needs to report what a multi-second build is doing between enqueue and
// completion, instead of only its post-hoc totals. Semantics follow Stats.Add: the counter
// fields are increments since the previous emission, MaxFrontier is a
// high-water candidate to be max-merged.
//
// An Observer must be safe for concurrent use when one function is
// called from several goroutines (the oracle's APSP fan-out reports every
// completed block of sources from the worker that ran it), and must be
// cheap: it runs on the engine's driving goroutine, between barriers. A nil observer (the default) costs
// one predictable branch per round — nothing on the arc-scanning hot
// path, which BenchmarkEngineObserver pins down.
type Observer func(delta Stats)

// Workers resolves a worker-count request: non-positive means
// runtime.GOMAXPROCS(0).
func Workers(requested int) int {
	if requested > 0 {
		return requested
	}
	return runtime.GOMAXPROCS(0)
}
