package expt

import (
	"context"
	"time"

	"repro/internal/anf"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/pbfs"
)

// AlgoCost summarizes one estimator's run: its diameter estimate, the
// wall-clock time, the number of BSP/communication rounds, and the
// aggregate message volume (in edge-message units; for HADI each register
// word counts once, matching its K-fold larger per-round traffic).
type AlgoCost struct {
	Estimate int64
	Elapsed  time.Duration
	Rounds   int
	Messages int64
	// Model is the modeled cluster time (see CostModel): per-round latency
	// plus transfer volume, derived from Rounds and Messages.
	Model time.Duration
}

// Table4Row compares the three diameter estimators on one dataset.
type Table4Row struct {
	Dataset  string
	TrueDiam int64
	Cluster  AlgoCost
	BFS      AlgoCost
	HADI     AlgoCost
}

// ANFRegisters is the sketch width used for the HADI baseline.
const ANFRegisters = 32

// Table4 reproduces the running-time/estimate comparison of the paper's
// Table 4: CLUSTER-based estimation vs parallel BFS vs HADI.
func Table4(ctx context.Context, cfg Config) ([]Table4Row, error) {
	var rows []Table4Row
	for _, d := range Datasets() {
		g := d.Build(cfg.scale())
		row, err := Table4ForGraph(ctx, cfg, d.Name, g, granularityTarget(d, g.NumNodes()))
		if err != nil {
			return nil, err
		}
		truth, _ := TrueDiameter(d, cfg.scale(), g)
		row.TrueDiam = int64(truth)
		rows = append(rows, *row)
	}
	return rows, nil
}

// Table4ForGraph runs all three estimators on one graph, leaving the true
// diameter to the caller.
func Table4ForGraph(ctx context.Context, cfg Config, name string, g *graph.Graph, target int) (*Table4Row, error) {
	row := &Table4Row{Dataset: name}
	cc, err := ClusterCost(ctx, cfg, g, target)
	if err != nil {
		return nil, err
	}
	row.Cluster = *cc

	bc, err := BFSCost(cfg, g)
	if err != nil {
		return nil, err
	}
	row.BFS = *bc

	hc, err := HADICost(ctx, cfg, g)
	if err != nil {
		return nil, err
	}
	row.HADI = *hc
	return row, nil
}

// ClusterCost runs the decomposition-based estimator at the granularity
// that yields about `target` clusters (the τ search is excluded from the
// timing, mirroring the paper's use of pre-tuned parameters).
func ClusterCost(ctx context.Context, cfg Config, g *graph.Graph, target int) (*AlgoCost, error) {
	opt := core.Options{Seed: cfg.Seed, Workers: cfg.Workers}
	tau, _, err := core.TauForTargetClusters(ctx, g, target, 0.25, opt)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	res, err := core.ApproxDiameter(ctx, g, core.DiameterOptions{Options: opt, Tau: tau})
	if err != nil {
		return nil, err
	}
	return &AlgoCost{
		Estimate: res.Upper,
		Elapsed:  time.Since(start),
		Rounds:   res.Stats.Rounds,
		Messages: res.Stats.Messages,
		Model:    DefaultCostModel.Time(res.Stats.Rounds, res.Stats.Messages),
	}, nil
}

// BFSCost runs the BFS competitor: a single parallel BFS from the
// max-degree node reporting 2·ecc, as in the paper's Table 4.
func BFSCost(cfg Config, g *graph.Graph) (*AlgoCost, error) {
	_, src := g.MaxDegree()
	start := time.Now()
	res, err := pbfs.Run(g, src, cfg.Workers)
	if err != nil {
		return nil, err
	}
	return &AlgoCost{
		Estimate: int64(res.Upper),
		Elapsed:  time.Since(start),
		Rounds:   res.Stats.Rounds,
		Messages: res.Stats.Messages,
		Model:    DefaultCostModel.Time(res.Stats.Rounds, res.Stats.Messages),
	}, nil
}

// HADICost runs the ANF/HADI competitor.
func HADICost(ctx context.Context, cfg Config, g *graph.Graph) (*AlgoCost, error) {
	start := time.Now()
	res, err := anf.Run(ctx, g, anf.Options{
		K:       ANFRegisters,
		Seed:    cfg.Seed,
		Workers: cfg.Workers,
	})
	if err != nil {
		return nil, err
	}
	return &AlgoCost{
		Estimate: int64(res.DiameterEstimate),
		Elapsed:  time.Since(start),
		Rounds:   res.Rounds,
		Messages: res.MessagesWords,
		Model:    DefaultCostModel.Time(res.Rounds, res.MessagesWords),
	}, nil
}
