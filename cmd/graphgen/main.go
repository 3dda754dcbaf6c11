// Command graphgen generates synthetic benchmark graphs and writes them as
// text edge lists. -gen takes the generator specs of reprod -gen
// (graph.Generate): mesh:WxH, road:WxH[:keep], ba:N[:deg],
// rmat:SCALE[:deg], er:N[:deg] and expanderpath:N.
//
// Usage:
//
//	graphgen -gen mesh:1000x1000 -out mesh1000.txt
//	graphgen -gen road:500x500:0.4 -seed 7 -out road.txt
//	graphgen -gen ba:100000:8 -out social.txt
//	graphgen -gen rmat:17:8 -cc -out rmat.txt
//	graphgen -gen expanderpath:100000 -out exp.txt
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/graph"
)

func main() {
	spec := flag.String("gen", "mesh:100x100", "generator spec: "+graph.GenerateSpecs)
	seed := flag.Uint64("seed", 1, "random seed")
	out := flag.String("out", "", "output file (default stdout)")
	largestCC := flag.Bool("cc", false, "keep only the largest connected component")
	flag.Parse()

	g, err := graph.Generate(*spec, *seed)
	fail(err)
	if *largestCC {
		g, _ = g.LargestComponent()
	}
	fmt.Fprintln(os.Stderr, graph.Summarize(g))

	if *out == "" {
		fail(graph.WriteEdgeList(os.Stdout, g))
		return
	}
	fail(graph.SaveEdgeList(*out, g))
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
}
