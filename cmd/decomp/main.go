// Command decomp runs a graph decomposition (CLUSTER, CLUSTER2 or the MPX
// baseline) on an edge-list graph and prints clustering statistics.
//
// Usage:
//
//	decomp -in graph.txt -algo cluster -tau 64
//	decomp -in graph.txt -algo cluster2 -tau 64
//	decomp -in graph.txt -algo mpx -beta 0.3
//	decomp -in graph.txt -algo cluster -target 1000   # search tau
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/mpx"
	"repro/internal/quotient"
)

func main() {
	in := flag.String("in", "", "input edge-list file (required)")
	algo := flag.String("algo", "cluster", "cluster | cluster2 | mpx")
	tau := flag.Int("tau", 16, "granularity parameter for cluster/cluster2")
	beta := flag.Float64("beta", 0.3, "shift rate for mpx")
	target := flag.Int("target", 0, "if > 0, search the parameter for ~target clusters")
	seed := flag.Uint64("seed", 1, "random seed")
	workers := flag.Int("workers", 0, "BSP workers (0 = GOMAXPROCS)")
	flag.Parse()

	if *in == "" {
		fmt.Fprintln(os.Stderr, "missing -in")
		os.Exit(2)
	}
	g, err := graph.LoadEdgeList(*in)
	fail(err)
	if g.NumNodes() == 0 {
		// An empty file parses as a 0-node graph; there is nothing to
		// decompose and no largest cluster to report.
		fail(errors.New("decomp: empty graph"))
	}
	fmt.Println("graph:", graph.Summarize(g))

	// Ctrl-C cancels the decomposition (or the parameter search) at its
	// next round barrier; after the context fires, default handling
	// returns, so a second Ctrl-C kills immediately.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	context.AfterFunc(ctx, stop)

	var cl *core.Clustering
	switch *algo {
	case "cluster", "cluster2":
		opt := core.Options{Seed: *seed, Workers: *workers}
		if *target > 0 {
			var t int
			t, cl, err = core.TauForTargetClusters(ctx, g, *target, 0.2, opt)
			fail(err)
			fmt.Printf("searched tau=%d for target %d clusters\n", t, *target)
			*tau = t
		}
		if *algo == "cluster2" {
			cl, err = core.Cluster2(ctx, g, *tau, opt)
		} else if cl == nil {
			cl, err = core.ClusterContext(ctx, g, *tau, opt)
		}
		fail(err)
	case "mpx":
		opt := mpx.Options{Beta: *beta, Seed: *seed, Workers: *workers}
		if *target > 0 {
			var b float64
			b, cl, err = mpx.BetaForTargetClusters(ctx, g, *target, 0.2, opt)
			fail(err)
			fmt.Printf("searched beta=%.4f for target %d clusters\n", b, *target)
		} else {
			cl, err = mpx.Decompose(ctx, g, opt)
			fail(err)
		}
	default:
		fmt.Fprintf(os.Stderr, "unknown algo %q\n", *algo)
		os.Exit(2)
	}

	q, err := quotient.Build(g, cl.Owner, cl.NumClusters())
	fail(err)
	sizes := cl.ClusterSizes()
	sort.Sort(sort.Reverse(sort.IntSlice(sizes)))
	fmt.Printf("clusters:      %d\n", cl.NumClusters())
	fmt.Printf("max radius:    %d\n", cl.MaxRadius())
	fmt.Printf("quotient:      nC=%d mC=%d\n", q.NumNodes(), q.NumEdges())
	fmt.Printf("growth rounds: %d\n", cl.GrowthSteps)
	fmt.Printf("messages:      %d\n", cl.Stats.Messages)
	fmt.Printf("largest cluster: %d nodes\n", sizes[0])
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
}
