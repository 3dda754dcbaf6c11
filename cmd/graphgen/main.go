// Command graphgen generates synthetic benchmark graphs and writes them as
// text edge lists.
//
// Usage:
//
//	graphgen -kind mesh -w 1000 -h 1000 -out mesh1000.txt
//	graphgen -kind road -w 500 -h 500 -keep 0.4 -seed 7 -out road.txt
//	graphgen -kind ba -n 100000 -deg 8 -out social.txt
//	graphgen -kind rmat -scale 17 -deg 8 -out rmat.txt
//	graphgen -kind expanderpath -n 100000 -out exp.txt
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/graph"
)

func main() {
	kind := flag.String("kind", "mesh", "mesh | road | ba | rmat | er | expanderpath")
	w := flag.Int("w", 100, "grid width (mesh, road)")
	h := flag.Int("h", 100, "grid height (mesh, road)")
	n := flag.Int("n", 10000, "node count (ba, er, expanderpath)")
	deg := flag.Int("deg", 8, "edges per node (ba, rmat) / avg degree (er)")
	scale := flag.Int("scale", 14, "log2 node count (rmat)")
	keep := flag.Float64("keep", 0.4, "non-tree edge keep fraction (road)")
	seed := flag.Uint64("seed", 1, "random seed")
	out := flag.String("out", "", "output file (default stdout)")
	largestCC := flag.Bool("cc", false, "keep only the largest connected component")
	flag.Parse()

	// need refuses a size the generator would panic on, naming the flags.
	need := func(ok bool, format string, args ...any) {
		if !ok {
			fail(fmt.Errorf("graphgen: "+format, args...))
		}
	}
	var g *graph.Graph
	switch *kind {
	case "mesh":
		need(*w >= 1 && *h >= 1, "mesh needs -w and -h >= 1, got -w %d -h %d", *w, *h)
		g = graph.Mesh(*w, *h)
	case "road":
		need(*w >= 2 && *h >= 2, "road needs -w and -h >= 2, got -w %d -h %d", *w, *h)
		g = graph.RoadLike(*w, *h, *keep, *seed)
	case "ba":
		need(*deg >= 1 && *n > *deg, "ba needs -deg >= 1 and -n > -deg, got -n %d -deg %d", *n, *deg)
		g = graph.BarabasiAlbert(*n, *deg, *seed)
	case "rmat":
		need(*scale >= 0 && *scale <= 31, "rmat needs -scale in [0, 31] (node ids are 32-bit), got %d", *scale)
		g = graph.RMAT(*scale, *deg, *seed)
	case "er":
		need(*n >= 0, "er needs -n >= 0, got %d", *n)
		g = graph.ErdosRenyi(*n, *n**deg/2, *seed)
	case "expanderpath":
		need(*n >= 6, "expanderpath needs -n >= 6 (an expander core of 4 beside its path), got %d", *n)
		g = graph.ExpanderPath(*n, 0, *seed)
	default:
		fmt.Fprintf(os.Stderr, "unknown kind %q\n", *kind)
		os.Exit(2)
	}
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
