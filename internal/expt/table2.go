package expt

import (
	"context"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/mpx"
	"repro/internal/quotient"
)

// Table2Row compares CLUSTER against MPX on one dataset at matched
// granularity: nC and mC are the nodes/edges of the quotient graph, r the
// maximum cluster radius. As in the paper, MPX is granted a comparable but
// slightly larger number of clusters (a conservative handicap in CLUSTER's
// favor would be the opposite, so matching the paper keeps the comparison
// honest).
type Table2Row struct {
	Dataset string

	ClusterNC int
	ClusterMC int
	ClusterR  int32

	MPXNC int
	MPXMC int
	MPXR  int32
}

// Table2 reproduces the clustering-quality comparison of the paper's
// Table 2 on every dataset.
func Table2(ctx context.Context, cfg Config) ([]Table2Row, error) {
	var rows []Table2Row
	for _, d := range Datasets() {
		g := d.Build(cfg.scale())
		row, err := Table2ForGraph(ctx, cfg, d.Name, g, granularityTarget(d, g.NumNodes()))
		if err != nil {
			return nil, err
		}
		rows = append(rows, *row)
	}
	return rows, nil
}

// Table2ForGraph runs the CLUSTER-vs-MPX comparison on a single graph with
// the given cluster-count target.
func Table2ForGraph(ctx context.Context, cfg Config, name string, g *graph.Graph, target int) (*Table2Row, error) {
	opt := core.Options{Seed: cfg.Seed, Workers: cfg.Workers}
	_, cl, err := core.TauForTargetClusters(ctx, g, target, 0.2, opt)
	if err != nil {
		return nil, err
	}
	qc, err := quotient.Build(g, cl.Owner, cl.NumClusters())
	if err != nil {
		return nil, err
	}

	// MPX gets a slightly larger cluster budget, as in the paper.
	mpxTarget := cl.NumClusters() + cl.NumClusters()/20
	_, mcl, err := mpx.BetaForTargetClusters(ctx, g, mpxTarget, 0.2,
		mpx.Options{Seed: cfg.Seed + 1, Workers: cfg.Workers})
	if err != nil {
		return nil, err
	}
	qm, err := quotient.Build(g, mcl.Owner, mcl.NumClusters())
	if err != nil {
		return nil, err
	}

	return &Table2Row{
		Dataset:   name,
		ClusterNC: cl.NumClusters(),
		ClusterMC: qc.NumEdges(),
		ClusterR:  cl.MaxRadius(),
		MPXNC:     mcl.NumClusters(),
		MPXMC:     qm.NumEdges(),
		MPXR:      mcl.MaxRadius(),
	}, nil
}
