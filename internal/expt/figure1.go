package expt

import (
	"context"
	"time"

	"repro/internal/graph"
	"repro/internal/rng"
)

// Figure1Point is one measurement of the tail experiment: a chain of
// c·∆ extra nodes is appended to a random node of a small-diameter graph,
// inflating the diameter by a factor of about c+1 without changing the
// base structure, and both estimators are timed.
type Figure1Point struct {
	Dataset       string
	C             int
	TailLen       int
	ClusterTime   time.Duration
	ClusterModel  time.Duration
	ClusterRounds int
	BFSTime       time.Duration
	BFSModel      time.Duration
	BFSRounds     int
}

// DefaultTailFactors are the c values of the paper's Figure 1 (plus c=0 as
// the unmodified baseline).
var DefaultTailFactors = []int{0, 1, 2, 4, 6, 8, 10}

// Figure1 reproduces the tail experiment on the two social datasets.
func Figure1(ctx context.Context, cfg Config, factors []int) ([]Figure1Point, error) {
	if len(factors) == 0 {
		factors = DefaultTailFactors
	}
	var points []Figure1Point
	for _, name := range []string{"ba-social", "rmat-social"} {
		d, err := DatasetByName(name)
		if err != nil {
			return nil, err
		}
		base := d.Build(cfg.scale())
		ps, err := Figure1ForGraph(ctx, cfg, name, base, factors)
		if err != nil {
			return nil, err
		}
		points = append(points, ps...)
	}
	return points, nil
}

// Figure1ForGraph runs the tail experiment for one base graph.
func Figure1ForGraph(ctx context.Context, cfg Config, name string, base *graph.Graph, factors []int) ([]Figure1Point, error) {
	// The tail unit is the base diameter, as in the paper; the two-sweep
	// lower bound is tight on social graphs and cheap.
	_, baseDiam := base.TwoSweep(0)
	if baseDiam < 1 {
		baseDiam = 1
	}
	anchor := graph.NodeID(rng.New(cfg.Seed ^ 0xf19).Intn(base.NumNodes()))
	target := granularityTarget(Dataset{}, base.NumNodes())

	var points []Figure1Point
	for _, c := range factors {
		g := base
		tail := c * int(baseDiam)
		if tail > 0 {
			g = graph.AppendTail(base, anchor, tail)
		}
		cc, err := ClusterCost(ctx, cfg, g, target)
		if err != nil {
			return nil, err
		}
		bc, err := BFSCost(cfg, g)
		if err != nil {
			return nil, err
		}
		points = append(points, Figure1Point{
			Dataset:       name,
			C:             c,
			TailLen:       tail,
			ClusterTime:   cc.Elapsed,
			ClusterModel:  cc.Model,
			ClusterRounds: cc.Rounds,
			BFSTime:       bc.Elapsed,
			BFSModel:      bc.Model,
			BFSRounds:     bc.Rounds,
		})
	}
	return points, nil
}
