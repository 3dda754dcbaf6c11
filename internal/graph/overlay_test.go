package graph

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/rng"
)

// dijkstraTable is g's all-pairs distance table, row by row, and its
// largest finite entry: the tightest maxDist NewOverlay accepts.
func dijkstraTable(g *Weighted) (table []int64, maxFinite int64) {
	n := g.NumNodes()
	table = make([]int64, n*n)
	for src := range n {
		g.DijkstraInto(NodeID(src), table[src*n:(src+1)*n])
	}
	for _, d := range table {
		if d != InfDist {
			maxFinite = max(maxFinite, d)
		}
	}
	return table, maxFinite
}

// voronoiQuotient contracts g around k random centres as the oracle's
// quotient does: every node joins its nearest centre by BFS, and an edge
// between two clusters becomes an arc weighing dist[u] + 1 + dist[v], the
// lightest per cluster pair. Nodes no centre reaches are left out, so a
// centre alone in its component is an isolated cluster.
func voronoiQuotient(g *Graph, k int, seed uint64) *Weighted {
	centres := sourceList(rng.New(seed).Perm(g.NumNodes())[:k])
	dist, owner := g.MultiSourceBFS(centres)
	cluster := make([]NodeID, g.NumNodes())
	for i, c := range centres {
		cluster[c] = NodeID(i)
	}
	var (
		edges [][2]NodeID
		ws    []int32
	)
	g.Edges(func(u, v NodeID) bool {
		if owner[u] != None && owner[v] != None && owner[u] != owner[v] {
			edges = append(edges, [2]NodeID{cluster[owner[u]], cluster[owner[v]]})
			ws = append(ws, dist[u]+1+dist[v])
		}
		return true
	})
	return MustWeighted(k, edges, ws)
}

// Overlay rows against Dijkstra from every source, cell for cell, on the
// inputs the oracle meets and the ones that stress the contraction:
// quotients of road-like, mesh and G(n,p) graphs; RMAT's hub-heavy largest
// component, where contraction runs many levels; a star, whose first level
// leaves only the hub; a disconnected union with isolated nodes; one and
// two nodes; and a maxDist near the 2³¹ bound, as a quotient of
// large-radius clusters gives, where levels must be refused rather than let
// the core search overflow (the same graph with its true maxDist contracts
// deeper). Row's counters are checked against their definitions: core
// arcs scanned from the nodes the source reaches, the lift's arcs out of
// every node reachable from the source along kept arcs, every kept arc
// once for the sweep, and the distinct distances of the reached core nodes.
func TestAPSPOverlayRowsMatchDijkstra(t *testing.T) {
	var rmatLevels, refused int
	for seed := uint64(1); seed <= 3; seed++ {
		r := rng.New(seed)
		small := func() int32 { return int32(1 + r.Intn(7)) }
		rmat, _ := RMAT(11, 8, seed).LargestComponent()
		for _, in := range []struct {
			name string
			g    *Weighted
		}{
			{"road", voronoiQuotient(RoadLike(40, 30, 0.4, seed), 300, seed)},
			{"mesh", voronoiQuotient(Mesh(30, 30), 200, seed)},
			{"gnp", voronoiQuotient(ErdosRenyi(600, 700, seed), 250, seed)},
			{"rmat", voronoiQuotient(rmat, 200, seed)},
			{"star", weightedBy(Star(150), small)},
			{"union", weightedBy(disjointUnion(5, Mesh(6, 6), ErdosRenyi(40, 60, seed), Path(15)), small)},
			{"k=1", weightedBy(Path(1), small)},
			{"k=2", weightedBy(Path(2), small)},
			{"k=2,isolated", weightedBy(disjointUnion(2), small)},
			{"heavyTailed", weightedBy(RoadLike(16, 16, 0.4, seed), func() int32 { return int32(1) << r.Intn(17) })},
		} {
			t.Run(fmt.Sprintf("%s/seed%d", in.name, seed), func(t *testing.T) {
				table, maxDist := dijkstraTable(in.g)
				ov := NewOverlay(in.g, maxDist)
				checkOverlayRows(t, in.g, ov, table)
				switch in.name {
				case "rmat":
					rmatLevels = max(rmatLevels, ov.Levels())
				case "star":
					if core, _ := ov.Core(); core.NumNodes() != 1 {
						t.Fatalf("star: core of %d nodes, want the hub alone", core.NumNodes())
					}
				case "road":
					// A bound this close to 2³¹ leaves room for arcs of
					// twice the quotient's heaviest only.
					near := (1<<31 - 1) - 2*int64(in.g.MaxWeight())
					tight := NewOverlay(in.g, near)
					if tight.Levels() >= ov.Levels() {
						t.Fatalf("maxDist %d took %d levels, the true maxDist %d", near, tight.Levels(), ov.Levels())
					}
					if core, _ := tight.Core(); int64(core.MaxWeight())+near >= 1<<31 {
						t.Fatalf("core arc %d plus maxDist %d reaches 2³¹", core.MaxWeight(), near)
					}
					checkOverlayRows(t, in.g, tight, table)
					refused++
				}
			})
		}
	}
	if rmatLevels < 5 || refused == 0 {
		t.Fatalf("inputs too tame: RMAT contracted %d levels at most, %d near-bound inputs ran", rmatLevels, refused)
	}
}

// checkOverlayRows compares ov's rows with table, g's Dijkstra table.
func checkOverlayRows(t *testing.T, g *Weighted, ov *Overlay, table []int64) {
	t.Helper()
	n := g.NumNodes()
	core, ids := ov.Core()
	coreID := make([]NodeID, n)
	for i, v := range ids {
		coreID[v] = NodeID(i)
	}
	var sweep int64
	for v := range n {
		kept, _ := ov.Kept(NodeID(v))
		sweep += int64(len(kept))
	}
	s := ov.NewAPSPScratch()
	row := make([]uint32, n)
	for i := range row {
		row[i] = 7 // Row must overwrite every cell
	}
	for src := range n {
		want := table[src*n : (src+1)*n]
		relaxations, buckets := s.Row(NodeID(src), row)
		for v, d := range want {
			if got := int64(row[v]); (row[v] == InfDist32) != (d == InfDist) || (d != InfDist && got != d) {
				t.Fatalf("Row(%d)[%d] = %d, Dijkstra says %d (%d levels, core of %d)", src, v, row[v], d, ov.Levels(), len(ids))
			}
		}
		// The lift scans the kept arcs of every node reachable from src
		// along kept arcs; the core search those of every reached core node.
		wantRelax := sweep
		seen := make([]bool, n)
		seen[src] = true
		for stack := []NodeID{NodeID(src)}; len(stack) > 0; {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			kept, _ := ov.Kept(x)
			wantRelax += int64(len(kept))
			for _, u := range kept {
				if !seen[u] {
					seen[u] = true
					stack = append(stack, u)
				}
			}
		}
		var distinct []int64
		for _, v := range ids {
			if want[v] != InfDist {
				wantRelax += int64(core.Degree(coreID[v]))
				distinct = append(distinct, want[v])
			}
		}
		slices.Sort(distinct)
		if distinct = slices.Compact(distinct); relaxations != wantRelax || buckets != len(distinct) {
			t.Fatalf("Row(%d) counted %d relaxations, %d buckets; want %d and %d distinct core distances",
				src, relaxations, buckets, wantRelax, len(distinct))
		}
	}
}
