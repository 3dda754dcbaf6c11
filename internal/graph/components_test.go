package graph

import "testing"

func TestConnectedComponentsSingle(t *testing.T) {
	g := Mesh(5, 5)
	labels, k := g.ConnectedComponents()
	if k != 1 {
		t.Fatalf("k=%d want 1", k)
	}
	for _, l := range labels {
		if l != 0 {
			t.Fatal("labels not all zero")
		}
	}
}

func TestConnectedComponentsMultiple(t *testing.T) {
	b := NewBuilder(7)
	b.AddEdge(0, 1)
	b.AddEdge(2, 3)
	b.AddEdge(3, 4)
	// 5, 6 isolated
	g := b.Build()
	labels, k := g.ConnectedComponents()
	if k != 4 {
		t.Fatalf("k=%d want 4", k)
	}
	if labels[0] != labels[1] || labels[2] != labels[3] || labels[3] != labels[4] {
		t.Fatal("component labels wrong")
	}
	if labels[5] == labels[6] {
		t.Fatal("isolated nodes merged")
	}
}

func TestIsConnected(t *testing.T) {
	if !Path(10).IsConnected() {
		t.Fatal("path should be connected")
	}
	if !NewBuilder(0).Build().IsConnected() {
		t.Fatal("empty graph counts as connected")
	}
	b := NewBuilder(2)
	if b.Build().IsConnected() {
		t.Fatal("two isolated nodes are not connected")
	}
}

func TestLargestComponent(t *testing.T) {
	b := NewBuilder(10)
	// Component A: 0-1-2 (3 nodes). Component B: 3-4-5-6-7 (5 nodes).
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	for i := 3; i < 7; i++ {
		b.AddEdge(NodeID(i), NodeID(i+1))
	}
	g := b.Build()
	lc, ids := g.LargestComponent()
	if lc.NumNodes() != 5 {
		t.Fatalf("largest component %d nodes want 5", lc.NumNodes())
	}
	if lc.NumEdges() != 4 {
		t.Fatalf("largest component %d edges want 4", lc.NumEdges())
	}
	for newID, origID := range ids {
		if origID < 3 || origID > 7 {
			t.Fatalf("mapping wrong: new %d -> orig %d", newID, origID)
		}
	}
	if !lc.IsConnected() {
		t.Fatal("extracted component not connected")
	}
}

func TestLargestComponentAlreadyConnected(t *testing.T) {
	g := Cycle(8)
	lc, ids := g.LargestComponent()
	if lc != g {
		t.Fatal("connected graph should be returned as-is")
	}
	for i, id := range ids {
		if id != NodeID(i) {
			t.Fatal("identity mapping expected")
		}
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := Complete(6)
	sub, ids := g.inducedSubgraph(func(u NodeID) bool { return u%2 == 0 }, 3)
	if sub.NumNodes() != 3 {
		t.Fatalf("n=%d want 3", sub.NumNodes())
	}
	if sub.NumEdges() != 3 {
		t.Fatalf("m=%d want 3 (K3)", sub.NumEdges())
	}
	for _, id := range ids {
		if id%2 != 0 {
			t.Fatal("kept odd node")
		}
	}
}
