package mr

import (
	"errors"

	"repro/internal/graph"
)

// Lemma 3: each cluster-growing step of CLUSTER/CLUSTER2 can be executed in
// the MR model with a constant number of sorting/prefix rounds, hence
// O(R·log_ML m) rounds overall for R growing steps (O(R) when ML = Ω(nᵋ)).
// GrowStep realizes one such step so that the round accounting of the whole
// pipeline can be validated on the runtime: frontier nodes propose their
// cluster to uncovered neighbors via the edge list, and each contended node
// picks the smallest proposing cluster (a legal "arbitrary" tie-break).
// The proposal groups of distinct contended nodes are independent, so the
// reducer is concurrency-safe and the step parallelizes across shards.

// GrowState is the MR-side state of a growing decomposition.
type GrowState struct {
	// Owner[u] is the cluster of u or -1.
	Owner []int64
	// Dist[u] is the growth distance or -1.
	Dist []int64
	// Frontier holds the nodes claimed in the previous step.
	Frontier []graph.NodeID

	// inFrontier marks Frontier for GrowStep's edge scan; it is all false
	// between steps.
	inFrontier []bool
}

// NewGrowState initializes a state with the given singleton centers.
func NewGrowState(n int, centers []graph.NodeID) *GrowState {
	s := &GrowState{
		Owner: make([]int64, n),
		Dist:  make([]int64, n),
	}
	for i := 0; i < n; i++ {
		s.Owner[i] = -1
		s.Dist[i] = -1
	}
	for c, u := range centers {
		s.Owner[u] = int64(c)
		s.Dist[u] = 0
		s.Frontier = append(s.Frontier, u)
	}
	return s
}

// GrowStep advances every cluster one step using two MR rounds over the
// edge list and returns the number of newly covered nodes.
func (e *Engine) GrowStep(g *graph.Graph, s *GrowState) (int, error) {
	if len(s.Owner) != g.NumNodes() {
		return 0, errors.New("mr: state size mismatch")
	}
	if len(s.Frontier) == 0 {
		return 0, nil
	}
	if len(s.inFrontier) != len(s.Owner) {
		s.inFrontier = make([]bool, len(s.Owner))
	}
	inFrontier := s.inFrontier
	for _, u := range s.Frontier {
		inFrontier[u] = true
	}
	// Round 1: edges keyed by source; reducers forward proposals from
	// frontier endpoints to their neighbors. (In a full MR pipeline the
	// frontier flag joins in via a sort; the simulator lets the driver pass
	// it, charging the same round count.)
	in := make([]Pair, 0, len(s.Frontier)*4)
	g.Edges(func(u, v graph.NodeID) bool {
		if inFrontier[u] && s.Owner[v] == -1 {
			in = append(in, Pair{Key: uint64(v), A: s.Owner[u], B: s.Dist[u] + 1})
		}
		if inFrontier[v] && s.Owner[u] == -1 {
			in = append(in, Pair{Key: uint64(u), A: s.Owner[v], B: s.Dist[v] + 1})
		}
		return true
	})
	for _, u := range s.Frontier {
		inFrontier[u] = false
	}
	// Round 2: each contended node picks the smallest proposed cluster.
	out, err := e.Round(in, func(key uint64, pairs []Pair, emit Emitter) {
		best := pairs[0] // sorted by (A,B): smallest cluster id first
		emit(Pair{Key: key, A: best.A, B: best.B})
	})
	if err != nil {
		return 0, err
	}
	s.Frontier = s.Frontier[:0]
	for _, p := range out {
		u := graph.NodeID(p.Key)
		s.Owner[u] = p.A
		s.Dist[u] = p.B
		s.Frontier = append(s.Frontier, u)
	}
	return len(out), nil
}

// Grow runs GrowStep until no cluster can grow and returns the total
// number of steps.
func (e *Engine) Grow(g *graph.Graph, s *GrowState) (int, error) {
	steps := 0
	for {
		claimed, err := e.GrowStep(g, s)
		if err != nil {
			return steps, err
		}
		if claimed == 0 {
			return steps, nil
		}
		steps++
	}
}
