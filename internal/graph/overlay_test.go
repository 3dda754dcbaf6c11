package graph

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/bsp"
	"repro/internal/rng"
)

// dijkstraTable is g's all-pairs distance table, row by row.
func dijkstraTable(g *Weighted) []int64 {
	n := g.NumNodes()
	table := make([]int64, n*n)
	for src := range n {
		g.DijkstraInto(NodeID(src), table[src*n:(src+1)*n])
	}
	return table
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

// Table rows against Dijkstra from every source, cell for cell, on the
// inputs the oracle meets and the ones that stress the contraction:
// quotients of road-like, mesh and G(n,p) graphs; RMAT's hub-heavy largest
// component, where contraction runs many levels; a star, whose first level
// leaves only the hub; a disconnected union with isolated nodes; and one
// and two nodes. The road-like quotient is also checked through an overlay
// with no level, where Row is a search of the whole graph. The same graphs
// with unit weights give the hop rows, in uint16 cells, against BFS. The
// kernels' counters are checked against their definitions
// (checkTableRows).
func TestAPSPOverlayRowsMatchDijkstra(t *testing.T) {
	var rmatLevels int
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
				table := dijkstraTable(in.g)
				ov := NewOverlay(in.g)
				checkTableRows[uint32](t, ov, table)
				unit := in.g.Unit()
				checkTableRows[uint16](t, NewOverlay(unit), bfsTable(unit.Topology()))
				switch in.name {
				case "rmat":
					rmatLevels = max(rmatLevels, ov.Levels())
				case "star":
					if core, _ := ov.Core(); core.NumNodes() != 1 {
						t.Fatalf("star: core of %d nodes, want the hub alone", core.NumNodes())
					}
				case "road":
					checkTableRows[uint32](t, uncontracted(in.g), table)
				}
			})
		}
	}
	if rmatLevels < 5 {
		t.Fatalf("inputs too tame: RMAT contracted %d levels at most", rmatLevels)
	}
}

// checkTableRows fills ov's core table in cells of width T and compares the
// rows Row computes from every source with table, the reference distances
// of ov's graph (InfDist when unreachable), cell for cell. The Stats the
// kernels return are checked against their definitions: a search — Fill's,
// or Row's over an overlay with no level — is one round that relaxes the
// core arcs of every core node it reaches and settles its distinct
// distances; otherwise Row's only counter is its Relaxations, the min-terms:
// the kept arcs of every node reachable from the source along kept arcs (the
// lift), C cells for each core node among those (the seeds: a core source is
// its own) and every kept arc once (the sweep).
func checkTableRows[T Cell](t *testing.T, ov *Overlay, table []int64) {
	t.Helper()
	n := ov.g.NumNodes()
	core, ids := ov.Core()
	searched := func(c NodeID) bsp.Stats {
		var arcs int64
		var distinct []int64
		for j, v := range ids {
			if d := table[int(c)*n+int(v)]; d != InfDist {
				arcs += int64(core.Degree(NodeID(j)))
				distinct = append(distinct, d)
			}
		}
		slices.Sort(distinct)
		return bsp.Stats{Rounds: 1, Relaxations: arcs, Buckets: len(slices.Compact(distinct))}
	}
	s, tab := ov.NewAPSPScratch(), NewCoreTable[T](ov)
	if rows := tab.Rows(); (ov.Levels() == 0) != (rows == 0) || (rows != 0 && rows != len(ids)) {
		t.Fatalf("%d table rows for %d levels and a core of %d", rows, ov.Levels(), len(ids))
	}
	for i := range tab.Rows() {
		if got, want := tab.Fill(s, i), searched(ids[i]); got != want {
			t.Fatalf("Fill(%d) counted %+v; want %+v (the core arcs and distinct distances reached)", i, got, want)
		}
	}
	var sweep int64
	for v := range n {
		kept, _ := ov.Kept(NodeID(v))
		sweep += int64(len(kept))
	}
	row := make([]T, n)
	for i := range row {
		row[i] = 7 // Row must overwrite every cell
	}
	for src := range n {
		want := table[src*n : (src+1)*n]
		got := tab.Row(s, NodeID(src), row)
		for v, d := range want {
			if got := int64(row[v]); (row[v] == ^T(0)) != (d == InfDist) || (d != InfDist && got != d) {
				t.Fatalf("Row(%d)[%d] = %d, the reference says %d (%d levels, core of %d)", src, v, row[v], d, ov.Levels(), len(ids))
			}
		}
		if ov.Levels() == 0 {
			if want := searched(NodeID(src)); got != want {
				t.Fatalf("Row(%d) with no level counted %+v; want %+v", src, got, want)
			}
			continue
		}
		wantTerms := sweep
		seen := make([]bool, n)
		seen[src] = true
		for stack := []NodeID{NodeID(src)}; len(stack) > 0; {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if ov.pos[x] < 0 {
				wantTerms += int64(len(ids))
			}
			kept, _ := ov.Kept(x)
			wantTerms += int64(len(kept))
			for _, u := range kept {
				if !seen[u] {
					seen[u] = true
					stack = append(stack, u)
				}
			}
		}
		if want := (bsp.Stats{Relaxations: wantTerms}); got != want {
			t.Fatalf("Row(%d) counted %+v, want %+v", src, got, want)
		}
	}
}
