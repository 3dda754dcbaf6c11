package graph

import "fmt"

// Stats summarizes a graph for experiment reports (Table 1 of the paper).
type Stats struct {
	Nodes      int
	Edges      int
	MinDegree  int
	MaxDegree  int
	AvgDegree  float64
	Components int
}

// Summarize computes basic statistics of g.
func Summarize(g *Graph) Stats {
	n := g.NumNodes()
	s := Stats{Nodes: n, Edges: g.NumEdges()}
	if n == 0 {
		return s
	}
	s.MinDegree = g.Degree(0)
	for u := NodeID(0); u < NodeID(n); u++ {
		d := g.Degree(u)
		if d < s.MinDegree {
			s.MinDegree = d
		}
		if d > s.MaxDegree {
			s.MaxDegree = d
		}
	}
	s.AvgDegree = 2 * float64(s.Edges) / float64(n)
	_, s.Components = g.ConnectedComponents()
	return s
}

func (s Stats) String() string {
	return fmt.Sprintf("n=%d m=%d deg[min=%d avg=%.2f max=%d] components=%d",
		s.Nodes, s.Edges, s.MinDegree, s.AvgDegree, s.MaxDegree, s.Components)
}
