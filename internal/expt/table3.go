package expt

import (
	"context"
	"repro/internal/core"
	"repro/internal/graph"
)

// GranularityResult is one clustering granularity's diameter approximation.
type GranularityResult struct {
	NC         int   // quotient nodes
	MC         int   // quotient edges
	DeltaPrime int64 // the reported upper estimate (∆″ of Section 4)
	DeltaC     int64 // quotient hop diameter, the certified lower bound
}

// Table3Row reports the diameter approximation at a coarser and a finer
// granularity, plus the true diameter, like the paper's Table 3.
type Table3Row struct {
	Dataset   string
	Coarser   GranularityResult
	Finer     GranularityResult
	TrueDiam  int64
	DiamExact bool
}

// Table3 reproduces the diameter-approximation quality experiment.
func Table3(ctx context.Context, cfg Config) ([]Table3Row, error) {
	var rows []Table3Row
	for _, d := range Datasets() {
		g := d.Build(cfg.scale())
		row, err := Table3ForGraph(ctx, cfg, d.Name, g, granularityTarget(d, g.NumNodes()))
		if err != nil {
			return nil, err
		}
		truth, exact := TrueDiameter(d, cfg.scale(), g)
		row.TrueDiam, row.DiamExact = int64(truth), exact
		rows = append(rows, *row)
	}
	return rows, nil
}

// Table3ForGraph runs the coarser/finer comparison on one graph, leaving
// the true diameter to the caller. fineTarget is the finer granularity's
// cluster-count target; the coarser granularity uses a quarter of it
// (mirroring the paper's roughly 3-4x coarser runs).
func Table3ForGraph(ctx context.Context, cfg Config, name string, g *graph.Graph, fineTarget int) (*Table3Row, error) {
	coarseTarget := fineTarget / 4
	if coarseTarget < 12 {
		coarseTarget = 12
	}
	run := func(target int, seedShift uint64) (GranularityResult, error) {
		opt := core.Options{Seed: cfg.Seed + seedShift, Workers: cfg.Workers}
		_, cl, err := core.TauForTargetClusters(ctx, g, target, 0.25, opt)
		if err != nil {
			return GranularityResult{}, err
		}
		res, err := core.DiameterFromClustering(ctx, cl, cfg.Workers)
		if err != nil {
			return GranularityResult{}, err
		}
		return GranularityResult{
			NC:         res.Quotient.NumNodes(),
			MC:         res.Quotient.NumEdges(),
			DeltaPrime: res.Upper,
			DeltaC:     res.DeltaC,
		}, nil
	}
	coarse, err := run(coarseTarget, 0)
	if err != nil {
		return nil, err
	}
	fine, err := run(fineTarget, 7)
	if err != nil {
		return nil, err
	}
	return &Table3Row{Dataset: name, Coarser: coarse, Finer: fine}, nil
}
