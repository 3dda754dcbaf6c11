package expt

import (
	"strings"
	"testing"
)

// testCfg is small enough that the whole experiment suite runs in seconds.
var testCfg = Config{Scale: 0.18, Seed: 42}

func TestDatasetsBuildConnected(t *testing.T) {
	for _, d := range Datasets() {
		g := d.Build(testCfg.scale())
		if g.NumNodes() < 400 {
			t.Errorf("%s: only %d nodes at test scale", d.Name, g.NumNodes())
		}
		if !g.IsConnected() {
			t.Errorf("%s: not connected", d.Name)
		}
		if err := g.Validate(); err != nil {
			t.Errorf("%s: %v", d.Name, err)
		}
	}
}

func TestDatasetByName(t *testing.T) {
	if _, err := DatasetByName("mesh"); err != nil {
		t.Fatal(err)
	}
	if _, err := DatasetByName("nope"); err == nil {
		t.Fatal("unknown dataset should fail")
	}
}

func TestDatasetShapesMatchPaperRegimes(t *testing.T) {
	// Social datasets must have small diameters, road/mesh ones large
	// (relative to node count).
	for _, d := range Datasets() {
		g := d.Build(testCfg.scale())
		_, lb := g.TwoSweep(0)
		if d.LongDiameter {
			if int(lb)*int(lb) < g.NumNodes()/4 {
				t.Errorf("%s: diameter >= %d too small for a long-diameter dataset (n=%d)",
					d.Name, lb, g.NumNodes())
			}
		} else {
			if int(lb) > 30 {
				t.Errorf("%s: diameter >= %d too large for a social dataset", d.Name, lb)
			}
		}
	}
}

func TestTable1(t *testing.T) {
	rows, err := Table1(testCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(Datasets()) {
		t.Fatalf("got %d rows", len(rows))
	}
	text := FormatTable1(rows)
	if !strings.Contains(text, "mesh") || !strings.Contains(text, "diameter") {
		t.Fatal("rendering incomplete")
	}
}

func TestTable2ShapeClusterRadiusWins(t *testing.T) {
	rows, err := Table2(t.Context(), testCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(Datasets()) {
		t.Fatalf("got %d rows", len(rows))
	}
	longWins := 0
	longTotal := 0
	for _, r := range rows {
		d, _ := DatasetByName(r.Dataset)
		// Granularities must be comparable: MPX within a factor 2 of
		// CLUSTER's count.
		if r.MPXNC < r.ClusterNC/2 || r.MPXNC > 2*r.ClusterNC {
			t.Errorf("%s: granularity mismatch %d vs %d", r.Dataset, r.ClusterNC, r.MPXNC)
		}
		if d.LongDiameter {
			longTotal++
			if r.ClusterR < r.MPXR {
				longWins++
			}
		}
	}
	// The paper's headline: CLUSTER's max radius beats MPX's on
	// long-diameter graphs (Table 2 shows roughly 2x). Require a win on
	// every long-diameter dataset.
	if longWins < longTotal {
		t.Errorf("CLUSTER radius beat MPX on only %d/%d long-diameter datasets", longWins, longTotal)
	}
	_ = FormatTable2(rows)
}

func TestTable3ShapeApproximationQuality(t *testing.T) {
	rows, err := Table3(t.Context(), testCfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if !r.DiamExact {
			t.Errorf("%s: true diameter not certified at test scale", r.Dataset)
			continue
		}
		d, _ := DatasetByName(r.Dataset)
		// Paper: ∆'/∆ < 2 on every dataset at full scale. The additive
		// 2R term weighs more on the tiny test instances, especially for
		// single-digit-diameter social graphs, so allow 2.5 (long diameter)
		// and 3.5 (social) here; the full-scale ratios are recorded in
		// EXPERIMENTS.md.
		maxRatio := 3.5
		if d.LongDiameter {
			maxRatio = 2.5
		}
		for _, gr := range []GranularityResult{r.Coarser, r.Finer} {
			if gr.DeltaPrime < r.TrueDiam {
				t.Errorf("%s: ∆'=%d below true %d", r.Dataset, gr.DeltaPrime, r.TrueDiam)
			}
			if float64(gr.DeltaPrime) >= maxRatio*float64(r.TrueDiam) {
				t.Errorf("%s: ∆'/∆ = %.2f too large", r.Dataset,
					float64(gr.DeltaPrime)/float64(r.TrueDiam))
			}
			if gr.DeltaC > r.TrueDiam {
				t.Errorf("%s: lower bound %d above true %d", r.Dataset, gr.DeltaC, r.TrueDiam)
			}
		}
	}
	_ = FormatTable3(rows)
}

func TestTable4ShapeRoundAdvantage(t *testing.T) {
	rows, err := Table4(t.Context(), testCfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		d, _ := DatasetByName(r.Dataset)
		// BFS upper bound and CLUSTER upper bound must both dominate ∆;
		// HADI must not overshoot it.
		if r.BFS.Estimate < r.TrueDiam {
			t.Errorf("%s: BFS estimate %d below ∆=%d", r.Dataset, r.BFS.Estimate, r.TrueDiam)
		}
		if r.Cluster.Estimate < r.TrueDiam {
			t.Errorf("%s: CLUSTER estimate %d below ∆=%d", r.Dataset, r.Cluster.Estimate, r.TrueDiam)
		}
		if r.HADI.Estimate > r.TrueDiam {
			t.Errorf("%s: HADI estimate %d above ∆=%d", r.Dataset, r.HADI.Estimate, r.TrueDiam)
		}
		// The paper's headline: on long-diameter graphs CLUSTER needs far
		// fewer rounds than the Θ(∆)-round competitors.
		if d.LongDiameter {
			if r.Cluster.Rounds*2 >= r.BFS.Rounds {
				t.Errorf("%s: CLUSTER rounds %d not well below BFS rounds %d",
					r.Dataset, r.Cluster.Rounds, r.BFS.Rounds)
			}
			if r.Cluster.Rounds*2 >= r.HADI.Rounds {
				t.Errorf("%s: CLUSTER rounds %d not well below HADI rounds %d",
					r.Dataset, r.Cluster.Rounds, r.HADI.Rounds)
			}
		}
		// HADI moves K registers per arc per round: its message volume must
		// dwarf BFS's aggregate-linear volume.
		if r.HADI.Messages <= 4*r.BFS.Messages {
			t.Errorf("%s: HADI volume %d not >> BFS volume %d", r.Dataset, r.HADI.Messages, r.BFS.Messages)
		}
	}
	_ = FormatTable4(rows)
}

func TestFigure1ShapeFlatVsLinear(t *testing.T) {
	points, err := Figure1(t.Context(), testCfg, []int{0, 4, 10})
	if err != nil {
		t.Fatal(err)
	}
	byDataset := map[string][]Figure1Point{}
	for _, p := range points {
		byDataset[p.Dataset] = append(byDataset[p.Dataset], p)
	}
	for name, ps := range byDataset {
		if len(ps) != 3 {
			t.Fatalf("%s: %d points", name, len(ps))
		}
		base, last := ps[0], ps[2]
		// BFS rounds grow linearly with the tail (> 5x at c=10); CLUSTER
		// rounds stay within a small factor of the baseline.
		if last.BFSRounds < 5*base.BFSRounds {
			t.Errorf("%s: BFS rounds %d -> %d did not grow with the tail",
				name, base.BFSRounds, last.BFSRounds)
		}
		if last.ClusterRounds > 6*base.ClusterRounds+20 {
			t.Errorf("%s: CLUSTER rounds %d -> %d grew with the tail",
				name, base.ClusterRounds, last.ClusterRounds)
		}
	}
	_ = FormatFigure1(points)
}

func TestMRModelReport(t *testing.T) {
	rep, err := MRModel(t.Context(), Config{Scale: 0.4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if rep.DiameterMR != rep.DiameterRef {
		t.Fatalf("MR diameter %d != reference %d", rep.DiameterMR, rep.DiameterRef)
	}
	if rep.GrowRounds > rep.GrowSteps+1 {
		t.Fatalf("growth used %d rounds for %d steps — not O(1) rounds/step",
			rep.GrowRounds, rep.GrowSteps)
	}
	if rep.Shards < 1 {
		t.Fatalf("report missing shard count: %d", rep.Shards)
	}
	if rep.GrowShuffled <= 0 || rep.SquaringShuffled <= 0 {
		t.Fatalf("report missing shuffle volume: grow=%d squaring=%d",
			rep.GrowShuffled, rep.SquaringShuffled)
	}
	if len(rep.GrowRoundStats) != rep.GrowRounds {
		t.Fatalf("%d growth round stats for %d rounds", len(rep.GrowRoundStats), rep.GrowRounds)
	}
	if len(rep.SquaringRoundStats) != rep.SquaringRounds {
		t.Fatalf("%d squaring round stats for %d rounds", len(rep.SquaringRoundStats), rep.SquaringRounds)
	}
	var sum int64
	for _, rs := range rep.SquaringRoundStats {
		sum += rs.PairsIn
	}
	if sum != rep.SquaringShuffled {
		t.Fatalf("squaring round stats sum %d != total shuffled %d", sum, rep.SquaringShuffled)
	}
	text := FormatMRReport(rep)
	if !strings.Contains(text, "repeated squaring") {
		t.Fatal("report rendering incomplete")
	}
	if !strings.Contains(text, "pairs shuffled") {
		t.Fatal("report rendering missing shuffle accounting")
	}
}

// The MR pipeline report must be invariant under the Workers knob, which
// now drives the engine's reducer shard count.
func TestMRModelShardInvariant(t *testing.T) {
	base, err := MRModel(t.Context(), Config{Scale: 0.3, Seed: 7, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	wide, err := MRModel(t.Context(), Config{Scale: 0.3, Seed: 7, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if base.GrowRounds != wide.GrowRounds || base.GrowShuffled != wide.GrowShuffled ||
		base.MaxReducerIn != wide.MaxReducerIn ||
		base.SquaringRounds != wide.SquaringRounds ||
		base.SquaringShuffled != wide.SquaringShuffled ||
		base.DiameterMR != wide.DiameterMR {
		t.Fatalf("MR accounting differs across worker counts:\n1: %+v\n8: %+v", base, wide)
	}
}

func TestGranularityTargetClamp(t *testing.T) {
	d := Dataset{LongDiameter: true}
	if granularityTarget(d, 100) != 24 {
		t.Fatal("clamp failed")
	}
	if granularityTarget(d, 100000) != 1000 {
		t.Fatal("long-diameter target should be n/100")
	}
	if granularityTarget(Dataset{}, 100000) != 100 {
		t.Fatal("short-diameter target should be n/1000")
	}
}
