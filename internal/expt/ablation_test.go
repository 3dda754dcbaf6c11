package expt

import (
	"math"
	"strings"
	"testing"
)

func TestLemma1SweepSlope(t *testing.T) {
	// Lemma 1 with b = 2 predicts radius ∝ τ^(-1/2) (up to the log n
	// factor, which is constant across the sweep). Accept a generous band
	// around -0.5.
	points, slope, err := Lemma1Sweep(t.Context(), Config{Seed: 3}, 70, []int{1, 4, 16, 64})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 4 {
		t.Fatalf("got %d points", len(points))
	}
	if slope > -0.25 || slope < -0.85 {
		t.Fatalf("fitted slope %.2f outside [-0.85, -0.25] (theory -0.5)", slope)
	}
	// Radii must be non-increasing in τ.
	for i := 1; i < len(points); i++ {
		if points[i].Radius > points[i-1].Radius {
			t.Fatalf("radius increased from τ=%d to τ=%d", points[i-1].Tau, points[i].Tau)
		}
	}
	text := FormatLemma1(points, slope)
	if !strings.Contains(text, "Lemma 1") {
		t.Fatal("rendering incomplete")
	}
}

func TestFitSlope(t *testing.T) {
	// y = 3 - 0.5x exactly.
	xs := []float64{0, 1, 2, 3}
	ys := []float64{3, 2.5, 2, 1.5}
	if s := fitSlope(xs, ys); math.Abs(s+0.5) > 1e-12 {
		t.Fatalf("slope %v want -0.5", s)
	}
	if fitSlope(nil, nil) != 0 {
		t.Fatal("degenerate fit should be 0")
	}
}

func TestPipelineAblation(t *testing.T) {
	rows, err := PipelineAblation(t.Context(), Config{Scale: 0.15, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no long-diameter datasets?")
	}
	for _, r := range rows {
		// Both pipelines must upper-bound the truth.
		if r.ClusterUpper < r.TrueDiam || r.Cluster2Upper < r.TrueDiam {
			t.Errorf("%s: upper bounds [%d, %d] below ∆=%d",
				r.Dataset, r.ClusterUpper, r.Cluster2Upper, r.TrueDiam)
		}
	}
	text := FormatPipelineAblation(rows)
	if !strings.Contains(text, "CLUSTER2") {
		t.Fatal("rendering incomplete")
	}
}
