package expt

import (
	"context"
	"fmt"
	"math"
	"strings"

	"repro/internal/core"
	"repro/internal/graph"
)

// Ablation experiments for two design choices of the reproduction: the
// Lemma 1 radius/granularity law, and the practical CLUSTER-vs-CLUSTER2
// simplification the paper's experiments adopt (Section 6.2).

// Lemma1Point is one (τ, radius, rounds) measurement.
type Lemma1Point struct {
	Tau    int
	Radius int32
	Rounds int
}

// Lemma1Sweep measures the maximum cluster radius as a function of τ on a
// mesh (doubling dimension b = 2) and returns the points plus the fitted
// log-log slope. Lemma 1 predicts R_ALG = O((∆/τ^(1/b))·log n), i.e. a
// slope near -1/2 on a mesh; the harness exposes the fit so tests and
// reports can check the law empirically.
func Lemma1Sweep(ctx context.Context, cfg Config, side int, taus []int) ([]Lemma1Point, float64, error) {
	if side <= 0 {
		side = dim(180, cfg.scale())
	}
	if len(taus) == 0 {
		taus = []int{1, 2, 4, 8, 16, 32, 64}
	}
	g := graph.Mesh(side, side)
	var points []Lemma1Point
	var xs, ys []float64
	for _, tau := range taus {
		cl, err := core.ClusterContext(ctx, g, tau, core.Options{Seed: cfg.Seed, Workers: cfg.Workers})
		if err != nil {
			return nil, 0, err
		}
		r := cl.MaxRadius()
		points = append(points, Lemma1Point{Tau: tau, Radius: r, Rounds: cl.GrowthSteps})
		if r > 0 {
			xs = append(xs, math.Log(float64(tau)))
			ys = append(ys, math.Log(float64(r)))
		}
	}
	return points, fitSlope(xs, ys), nil
}

// fitSlope returns the least-squares slope of y against x.
func fitSlope(xs, ys []float64) float64 {
	n := float64(len(xs))
	if n < 2 {
		return 0
	}
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	denom := n*sxx - sx*sx
	if denom == 0 {
		return 0
	}
	return (n*sxy - sx*sy) / denom
}

// FormatLemma1 renders the sweep.
func FormatLemma1(points []Lemma1Point, slope float64) string {
	var out [][]string
	for _, p := range points {
		out = append(out, []string{
			fmt.Sprint(p.Tau), fmt.Sprint(p.Radius), fmt.Sprint(p.Rounds),
		})
	}
	return fmt.Sprintf("Lemma 1 sweep on a mesh (b=2): fitted log-log slope %.2f (theory: -1/2)\n", slope) +
		renderTable([]string{"tau", "max radius", "rounds"}, out)
}

// PipelineRow compares the CLUSTER and CLUSTER2 diameter pipelines on one
// dataset: the paper's experiments use CLUSTER "for efficiency" (§6.2);
// this ablation quantifies what that simplification saves and costs.
type PipelineRow struct {
	Dataset string

	ClusterUpper  int64
	ClusterRounds int
	ClusterNC     int

	Cluster2Upper  int64
	Cluster2Rounds int
	Cluster2NC     int

	TrueDiam int64
}

// PipelineAblation runs both pipelines on the long-diameter datasets.
func PipelineAblation(ctx context.Context, cfg Config) ([]PipelineRow, error) {
	var rows []PipelineRow
	for _, d := range Datasets() {
		if !d.LongDiameter {
			continue
		}
		g := d.Build(cfg.scale())
		truth, _ := TrueDiameter(d, cfg.scale(), g)
		tau := 4
		r1, err := core.ApproxDiameter(ctx, g, core.DiameterOptions{
			Options: core.Options{Seed: cfg.Seed, Workers: cfg.Workers}, Tau: tau,
		})
		if err != nil {
			return nil, err
		}
		r2, err := core.ApproxDiameter(ctx, g, core.DiameterOptions{
			Options: core.Options{Seed: cfg.Seed, Workers: cfg.Workers}, Tau: tau,
			UseCluster2: true,
		})
		if err != nil {
			return nil, err
		}
		rows = append(rows, PipelineRow{
			Dataset:        d.Name,
			ClusterUpper:   r1.Upper,
			ClusterRounds:  r1.Stats.Rounds,
			ClusterNC:      r1.Quotient.NumNodes(),
			Cluster2Upper:  r2.Upper,
			Cluster2Rounds: r2.Stats.Rounds,
			Cluster2NC:     r2.Quotient.NumNodes(),
			TrueDiam:       int64(truth),
		})
	}
	return rows, nil
}

// FormatPipelineAblation renders the comparison.
func FormatPipelineAblation(rows []PipelineRow) string {
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			r.Dataset,
			fmt.Sprintf("%d (%d rounds, %d nC)", r.ClusterUpper, r.ClusterRounds, r.ClusterNC),
			fmt.Sprintf("%d (%d rounds, %d nC)", r.Cluster2Upper, r.Cluster2Rounds, r.Cluster2NC),
			fmt.Sprint(r.TrueDiam),
		})
	}
	var b strings.Builder
	b.WriteString("Pipeline ablation: CLUSTER (paper's experimental simplification) vs CLUSTER2 (theory-faithful)\n")
	b.WriteString(renderTable([]string{"dataset", "CLUSTER ∆'", "CLUSTER2 ∆'", "∆"}, out))
	return b.String()
}
