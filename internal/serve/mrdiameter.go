package serve

import (
	"context"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/mr"
	"repro/internal/quotient"
)

// maxMRQuotient caps the quotient size admitted to repeated min-plus
// squaring: one squaring emits up to ℓ³ candidate pairs, so tau is the
// client-controlled knob that could otherwise turn one request into a
// multi-gigabyte shuffle. 256³ pairs ≈ 400 MB transient, the largest we
// let a single build allocate.
const maxMRQuotient = 256

// MRDiameterResult is the cached artifact behind /mr-diameter: the
// paper's Section 5 diameter path executed on the sharded MR runtime —
// CLUSTER(τ) decomposition, weighted quotient, then ⌈log₂ℓ⌉ min-plus
// squarings — with the run's full MR(MG, ML) accounting attached. The JSON
// tags are the /mr-diameter response fields (MRDiameterResponse embeds it).
type MRDiameterResult struct {
	// QuotientDiameter is ∆′C, the weighted quotient diameter computed by
	// repeated squaring; Upper = 2R + ∆′C is the certified upper bound.
	QuotientDiameter int64 `json:"quotient_diameter"`
	Upper            int64 `json:"upper"`
	RMax             int32 `json:"r_max"`
	NumClusters      int   `json:"num_clusters"`

	// MR accounting of the squaring pipeline (shard-count invariant). The
	// per-round profile is surfaced in /stats, not in the response.
	Rounds          int            `json:"mr_rounds"`
	Shards          int            `json:"mr_shards"`
	PairsShuffled   int64          `json:"mr_pairs_shuffled"`
	MaxReducerInput int            `json:"mr_max_reducer_input"`
	RoundStats      []mr.RoundStat `json:"-"`
}

// MRDiameter returns the cached MR-runtime diameter artifact for the
// graph, building it on first use. tau <= 0 resolves like the oracle
// default (the resolved value is what gets keyed and reported). The MR
// round accounting is surfaced per artifact in /stats.
func (s *Server) MRDiameter(ctx context.Context, name string, tau int, seed uint64) (*MRDiameterResult, error) {
	a, err := s.artifact(ctx, nil, "mrdiameter", buildParams{name, tau, seed, "cluster"})
	return a.mrdiameter, err
}

func buildMRDiameter(ctx context.Context, s *Server, key Key, g *graph.Graph, tr *buildTrace) (artifact, error) {
	cl, err := core.ClusterContext(ctx, g, key.Tau, s.buildOptions(tr, key.Seed))
	if err != nil {
		return artifact{}, err
	}
	_, wq, err := quotient.BuildWeighted(g, cl.Owner, cl.Dist, cl.NumClusters())
	if err != nil {
		return artifact{}, err
	}
	if wq.NumNodes() > maxMRQuotient {
		return artifact{}, badRequest("quotient has %d clusters, above the %d-cluster cap for MR repeated squaring (decrease tau, or use /diameter)",
			wq.NumNodes(), maxMRQuotient)
	}
	eng := mr.NewEngine(mr.Config{Shards: s.cfg.BuildWorkers})
	eng.SetContext(ctx)
	eng.SetObserver(s.mrObserver(tr))
	defer eng.Close()
	diam, err := eng.DiameterByRepeatedSquaring(wq)
	if err != nil {
		return artifact{}, err
	}
	return artifact{stats: cl.Stats, mrdiameter: &MRDiameterResult{
		QuotientDiameter: diam,
		Upper:            2*int64(cl.MaxRadius()) + diam,
		RMax:             cl.MaxRadius(),
		NumClusters:      cl.NumClusters(),
		Rounds:           eng.Rounds(),
		Shards:           eng.Shards(),
		PairsShuffled:    eng.TotalShuffled(),
		MaxReducerInput:  eng.MaxReducerInput(),
		RoundStats:       eng.RoundStats(),
	}}, nil
}
