package bsp

import (
	"context"
	"math/bits"
)

// Weighted single-source shortest paths by a monotone radix heap (Ahuja,
// Mehlhorn, Orlin and Tarjan, JACM 1990). Section 4 of the paper computes
// the weighted quotient's diameter and all-pairs distances on one machine,
// inside one reducer's local memory, and the quotients are small, so
// WeightedEngine is sequential: a label-setting search that settles every
// reached node once, in order of distance, exactly as Dijkstra does.
//
// The heap is monotone: a key popped is never below the previous one,
// because every arc weight is positive. Bin 0 holds the keys equal to the
// last key popped (last), and bin i > 0 the keys whose highest bit that
// differs from last is bit i-1; a key only ever moves to a lower bin, so
// each is moved at most 64 times. The heap holds entries by value and
// deletes lazily: a search pushes only a strict improvement of dist[v] and
// skips a popped entry whose distance is no longer dist[v].

// WeightedTopology is the adjacency access the weighted engine needs.
// *graph.Weighted satisfies it; as with Topology, the interface keeps this
// package free of a graph dependency.
type WeightedTopology interface {
	NumNodes() int
	Neighbors(u NodeID) ([]NodeID, []int32)
}

// WInf marks unreachable nodes in weighted distance arrays. It equals
// graph.InfDist.
const WInf int64 = 1 << 62

// WeightedEngine runs single-source shortest-path searches over a weighted
// topology with positive arc weights: weighted iFUB
// (graph.ExactDiameterWeighted) runs every search of one diameter on one
// engine, and each worker of the oracle's build fills its rows of an
// overlay's core table (graph.CoreTable.Fill) on one engine over the core.
// It is reusable across searches (its heap keeps its capacity, and
// Stats accumulate) but is not safe for concurrent use.
type WeightedEngine struct {
	t    WeightedTopology
	bins [65][]radixEntry
	last int64 // the last key popped; every queued key is >= last

	// ctx arms cooperative cancellation (SetContext); nil never cancels.
	ctx context.Context

	stats Stats
}

// radixEntry is one queued tentative distance.
type radixEntry struct {
	d int64
	v NodeID
}

// NewWeightedEngine returns an engine over t. The search is sequential and
// has no bucket width, so workers and delta are accepted and ignored; they
// remain in the signature for its existing callers.
func NewWeightedEngine(t WeightedTopology, workers int, delta int64) *WeightedEngine {
	return &WeightedEngine{t: t}
}

// Stats returns the accumulated cost counters; like Engine, they persist
// across searches so multi-search computations read their aggregate cost.
func (e *WeightedEngine) Stats() Stats { return e.stats }

// SetContext arms cooperative cancellation: SSSP checks ctx once, before
// it leaves the source, so a search that starts runs to completion and a
// cancelled one reaches only its source. Err reports the cause and drivers
// must discard the run. A nil ctx (the default) never cancels. The context
// covers every later search, as a multi-search computation like weighted
// iFUB needs; iFUB also checks its own ctx between searches.
func (e *WeightedEngine) SetContext(ctx context.Context) { e.ctx = ctx }

// Err returns the context error if SetContext armed cancellation and the
// context has been cancelled, else nil.
func (e *WeightedEngine) Err() error {
	if e.ctx == nil {
		return nil
	}
	return e.ctx.Err()
}

// Close does nothing: the engine holds no goroutines. It remains for the
// engine's existing callers.
func (e *WeightedEngine) Close() {}

// push queues v at distance d >= e.last.
func (e *WeightedEngine) push(v NodeID, d int64) {
	b := bits.Len64(uint64(d ^ e.last))
	e.bins[b] = append(e.bins[b], radixEntry{d, v}) // grows to its high-water mark, then reuses
}

// refill makes bin 0 non-empty: it raises last to the minimum of the lowest
// non-empty bin and redistributes that bin, whose entries all land in lower
// bins. It reports false when the heap is empty.
func (e *WeightedEngine) refill() bool {
	i := 1
	for i < len(e.bins) && len(e.bins[i]) == 0 {
		i++
	}
	if i == len(e.bins) {
		return false
	}
	b := e.bins[i]
	e.last = b[0].d
	for _, x := range b[1:] {
		e.last = min(e.last, x.d)
	}
	for _, x := range b {
		e.push(x.v, x.d)
	}
	e.bins[i] = b[:0]
	return true
}

// SSSP computes single-source shortest-path distances from src into dist
// (len NumNodes; unreachable nodes get WInf) and returns the weighted
// eccentricity of src within its component: Dijkstra's distances, on a
// radix heap. If the engine's context is already cancelled
// (SetContext), dist holds only the source and Err reports the cause.
// It allocates nothing once the heap has reached its high-water mark
// (pinned by TestWeightedSSSPZeroAlloc).
//
// Counters: Relaxations and Messages grow by the arcs scanned from settled
// nodes, Buckets and Rounds by the number of distinct distances settled.
func (e *WeightedEngine) SSSP(src NodeID, dist []int64) int64 {
	for i := range dist {
		dist[i] = WInf
	}
	dist[src] = 0
	if e.Err() != nil {
		return 0
	}
	e.last = 0
	e.push(src, 0)
	settled := int64(-1) // distance of the last node settled
	var arcs int64
	var levels int
	for len(e.bins[0]) > 0 || e.refill() {
		b := e.bins[0]
		x := b[len(b)-1]
		e.bins[0] = b[:len(b)-1]
		if x.d != dist[x.v] {
			continue // stale: v has since been pushed at a shorter distance
		}
		if x.d != settled {
			settled = x.d
			levels++
		}
		adj, ws := e.t.Neighbors(x.v)
		ws = ws[:len(adj)]
		arcs += int64(len(adj))
		for a, v := range adj {
			if nd := x.d + int64(ws[a]); nd < dist[v] {
				dist[v] = nd
				e.push(v, nd)
			}
		}
	}
	e.stats.Relaxations += arcs
	e.stats.Messages += arcs
	e.stats.Buckets += levels
	e.stats.Rounds += levels
	return settled
}
