package expt

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/mr"
	"repro/internal/quotient"
	"repro/internal/spanner"
)

// MRReport validates the Section 5 analysis on the MR(MG, ML) simulator:
// cluster-growing steps cost O(1) rounds each (Lemma 3), and the quotient
// diameter is computable by repeated min-plus squaring within the local
// memory budget (Theorem 4, Fact 2 path), with Baswana–Sen sparsification
// available when the quotient exceeds ML.
type MRReport struct {
	GraphNodes       int
	GraphEdges       int
	Shards           int // reducer shards both engines ran with
	GrowSteps        int
	GrowRounds       int
	GrowShuffled     int64 // pairs moved across all growth rounds
	MaxReducerIn     int
	QuotientNodes    int
	QuotientEdges    int
	SpannerEdges     int // after sparsification (0 if not needed)
	SquaringRounds   int
	SquaringShuffled int64 // pairs moved across all squaring rounds
	DiameterMR       int64 // weighted quotient diameter via repeated squaring
	DiameterRef      int64 // same, via weighted iFUB (reference)
	// GrowRoundStats and SquaringRoundStats are the engines' per-round
	// execution profiles (pairs in/out, shards).
	GrowRoundStats     []mr.RoundStat
	SquaringRoundStats []mr.RoundStat
}

// MRModel runs the end-to-end MR pipeline on a mesh dataset scaled by cfg.
func MRModel(ctx context.Context, cfg Config) (*MRReport, error) {
	d := dim(64, cfg.scale())
	g := graph.Mesh(d, d)

	// Cluster on the shared-memory engine (the MR growth demo below uses
	// the same step structure), then derive the quotient. The quotient is
	// kept small: the blocked min-plus product still shuffles Θ(ℓ³/b)
	// pairs per multiplication for b×b blocks (b = ⌊√ℓ⌋ without an ML),
	// which is exactly why Theorem 4 sizes it against MG·√ML.
	opt := core.Options{Seed: cfg.Seed, Workers: cfg.Workers}
	_, cl, err := core.TauForTargetClusters(ctx, g, 40, 0.5, opt)
	if err != nil {
		return nil, err
	}
	_, wq, err := quotient.BuildWeighted(g, cl.Owner, cl.Dist, cl.NumClusters())
	if err != nil {
		return nil, err
	}

	report := &MRReport{
		GraphNodes:    g.NumNodes(),
		GraphEdges:    g.NumEdges(),
		QuotientNodes: wq.NumNodes(),
		QuotientEdges: wq.NumEdges(),
	}

	// Lemma 3 validation: run multi-source growth from the same centers on
	// the MR engine, one round per step. The engine shards its reducers
	// Workers-wide; outputs and round counts are shard-count invariant.
	ml := int64(g.NumNodes()) // ML = Θ(n^ε) stand-in large enough for groups
	eng := mr.NewEngine(mr.Config{ML: ml, Shards: cfg.Workers})
	defer eng.Close()
	state := mr.NewGrowState(g.NumNodes(), cl.Centers)
	steps, err := eng.Grow(g, state)
	if err != nil {
		return nil, err
	}
	report.Shards = eng.Shards()
	report.GrowSteps = steps
	report.GrowRounds = eng.Rounds()
	report.GrowShuffled = eng.TotalShuffled()
	report.MaxReducerIn = eng.MaxReducerInput()
	report.GrowRoundStats = eng.RoundStats()

	// Theorem 4: if the quotient exceeds the (illustrative) local memory,
	// sparsify it with a 3-spanner first.
	wqForDiam := wq
	if int64(wq.NumEdges()) > ml {
		sp, err := spanner.BaswanaSen(wq, 2, cfg.Seed)
		if err != nil {
			return nil, err
		}
		report.SpannerEdges = sp.NumEdges()
		wqForDiam = sp
	}

	eng2 := mr.NewEngine(mr.Config{Shards: cfg.Workers})
	defer eng2.Close()
	diamMR, err := eng2.DiameterByRepeatedSquaring(wqForDiam)
	if err != nil {
		return nil, err
	}
	report.SquaringRounds = eng2.Rounds()
	report.SquaringShuffled = eng2.TotalShuffled()
	report.SquaringRoundStats = eng2.RoundStats()
	report.DiameterMR = diamMR
	ref, exact := wqForDiam.ExactDiameterWeighted(0)
	if !exact {
		// An inexact reference is a lower bound, not a diameter: comparing
		// the MR result against it would report a spurious (dis)agreement.
		return nil, fmt.Errorf("expt: reference weighted diameter did not converge (iFUB search budget exhausted at %d)", ref)
	}
	report.DiameterRef = ref
	if diamMR != ref {
		return nil, fmt.Errorf("expt: MR diameter %d disagrees with reference %d", diamMR, ref)
	}
	return report, nil
}
