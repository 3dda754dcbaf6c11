package expt

import (
	"testing"
	"time"
)

func TestCostModelTime(t *testing.T) {
	m := CostModel{RoundLatency: time.Second, MessageBytes: 8, Bandwidth: 8}
	// 3 rounds at 1s + 16 messages * 8B / 8 B/s = 3s + 16s.
	got := m.Time(3, 16)
	if got != 19*time.Second {
		t.Fatalf("modeled time %v want 19s", got)
	}
}

func TestCostModelZeroValueFallsBack(t *testing.T) {
	var m CostModel
	if m.Time(10, 1000) <= 0 {
		t.Fatal("zero-value model should fall back to defaults")
	}
}

func TestCostModelRoundsDominateForFewMessages(t *testing.T) {
	m := DefaultCostModel
	few := m.Time(1000, 0)
	many := m.Time(10, 0)
	if few <= many {
		t.Fatal("round term not monotone")
	}
}

func TestModeledTable4Shape(t *testing.T) {
	// The modeled times must reproduce the paper's Table 4 ordering on a
	// long-diameter graph: CLUSTER well below BFS, BFS below HADI.
	d, err := DatasetByName("mesh")
	if err != nil {
		t.Fatal(err)
	}
	g := d.Build(0.25)
	row, err := Table4ForGraph(t.Context(), Config{Scale: 0.25, Seed: 1}, "mesh", g, 128)
	if err != nil {
		t.Fatal(err)
	}
	if row.Cluster.Model*2 >= row.BFS.Model {
		t.Errorf("modeled CLUSTER time %v not well below BFS %v", row.Cluster.Model, row.BFS.Model)
	}
	if row.Cluster.Model*2 >= row.HADI.Model {
		t.Errorf("modeled CLUSTER time %v not well below HADI %v", row.Cluster.Model, row.HADI.Model)
	}
	// HADI's K-per-arc-per-round volume only dominates at large m; at this
	// scale its modeled time is at least comparable to BFS's (both Θ(∆)
	// rounds), never meaningfully cheaper.
	if row.HADI.Model*5 < row.BFS.Model*4 {
		t.Errorf("modeled HADI time %v implausibly below BFS %v", row.HADI.Model, row.BFS.Model)
	}
}
