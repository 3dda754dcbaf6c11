package mr

import (
	"errors"

	"repro/internal/core"
	"repro/internal/graph"
)

// Cluster runs the complete CLUSTER(τ) algorithm on the MR simulator,
// end-to-end: center selection is an MR round over the uncovered node set
// (each node flips its hash-based coin), and every growing step is a
// GrowStep round over the edge set. Together with Lemma 3 this validates
// the paper's Section 5 claim that the whole decomposition costs O(R)
// rounds when ML = Ω(nᵋ): the engine's round counter reports exactly the
// R growth rounds plus one selection round per batch.
//
// The batches are core.Options.Schedule's — the same driver, coin tag and
// seed derivation as core.Cluster — so the shared-memory, distributed-memory and
// MR implementations activate the same centers in the same order. The
// selection reducer is a pure hash-based coin flip per node key, so
// selection rounds parallelize across reducer shards with a batch
// structure independent of the shard count. Cluster returns the final
// state and the number of batches.
func (e *Engine) Cluster(g *graph.Graph, tau int, seed uint64) (*GrowState, int, error) {
	if tau < 1 {
		return nil, 0, errors.New("mr: Cluster requires tau >= 1")
	}
	gr := &growth{e: e, g: g, s: NewGrowState(g.NumNodes(), nil)}
	batches, err := core.Options{Seed: seed}.Schedule(gr, g.NumNodes(), tau, core.ClusterTag)
	if err != nil {
		return nil, 0, err
	}
	// Remaining uncovered nodes become singleton clusters (and, growth
	// being over, stay off the frontier).
	for u, o := range gr.s.Owner {
		if o == -1 {
			gr.s.Owner[u], gr.s.Dist[u] = gr.centers, 0
			gr.centers++
		}
	}
	return gr.s, batches, nil
}

// growth is the MR execution of cluster growing as the batch schedule sees
// it: selection is a round over the uncovered node set, a growing step is a
// GrowStep round over the edge set.
type growth struct {
	e       *Engine
	g       *graph.Graph
	s       *GrowState
	covered int
	centers int64
}

func (gr *growth) Uncovered() int              { return len(gr.s.Owner) - gr.covered }
func (gr *growth) Covered(u graph.NodeID) bool { return gr.s.Owner[u] != -1 }
func (gr *growth) Idle() bool                  { return len(gr.s.Frontier) == 0 }

func (gr *growth) AddCenter(u graph.NodeID) {
	gr.s.Owner[u], gr.s.Dist[u] = gr.centers, 0
	gr.s.Frontier = append(gr.s.Frontier, u)
	gr.centers++
	gr.covered++
}

// SelectUncovered is one MR round: each uncovered node is its own key
// group and emits itself if pick accepts it.
func (gr *growth) SelectUncovered(dst []graph.NodeID, pick func(graph.NodeID) bool) ([]graph.NodeID, error) {
	in := make([]Pair, 0, gr.Uncovered())
	for u, o := range gr.s.Owner {
		if o == -1 {
			in = append(in, Pair{Key: uint64(u)})
		}
	}
	out, err := gr.e.Round(in, func(key uint64, _ []Pair, emit Emitter) {
		if pick(graph.NodeID(key)) {
			emit(Pair{Key: key})
		}
	})
	for _, pr := range out {
		dst = append(dst, graph.NodeID(pr.Key))
	}
	return dst, err
}

func (gr *growth) Step() (claimed int, live bool, err error) {
	claimed, err = gr.e.GrowStep(gr.g, gr.s)
	gr.covered += claimed
	return claimed, claimed > 0, err
}
