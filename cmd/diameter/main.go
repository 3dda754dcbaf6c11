// Command diameter estimates the diameter of an edge-list graph with the
// paper's clustering-based algorithm and/or the BFS and HADI baselines.
//
// Usage:
//
//	diameter -in graph.txt -algo cluster -tau 64
//	diameter -in graph.txt -algo bfs
//	diameter -in graph.txt -algo hadi -k 32
//	diameter -in graph.txt -algo all
//	diameter -in graph.txt -algo exact      # iFUB ground truth
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"

	"repro/internal/anf"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/pbfs"
)

func main() {
	in := flag.String("in", "", "input edge-list file (required)")
	algo := flag.String("algo", "cluster", "cluster | bfs | hadi | exact | all")
	tau := flag.Int("tau", 0, "granularity for cluster (0 = auto)")
	k := flag.Int("k", 32, "FM registers for hadi")
	useCluster2 := flag.Bool("cluster2", false, "use the theory-faithful CLUSTER2 pipeline")
	seed := flag.Uint64("seed", 1, "random seed")
	workers := flag.Int("workers", 0, "BSP workers (0 = GOMAXPROCS)")
	flag.Parse()

	if *in == "" {
		fmt.Fprintln(os.Stderr, "missing -in")
		os.Exit(2)
	}
	switch *algo {
	case "cluster", "bfs", "hadi", "exact", "all":
	default:
		// Reject typos loudly: a silent no-op exit for "-algo clutser" reads
		// as success and ships a wrong number downstream.
		fmt.Fprintf(os.Stderr, "unknown -algo %q (want cluster, bfs, hadi, exact or all)\n", *algo)
		os.Exit(2)
	}
	g, err := graph.LoadEdgeList(*in)
	fail(err)
	fmt.Println("graph:", graph.Summarize(g))

	// Ctrl-C cancels the in-flight estimation at its next superstep barrier
	// instead of leaving a multi-second build running to completion. Once
	// the context fires, stop() restores default signal handling, so a
	// second Ctrl-C kills immediately — which also covers the bfs
	// baseline, the one estimator that is not context-aware.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	context.AfterFunc(ctx, stop)

	want := func(name string) bool { return *algo == "all" || *algo == name }

	if want("cluster") {
		res, err := core.ApproxDiameter(ctx, g, core.DiameterOptions{
			Options:     core.Options{Seed: *seed, Workers: *workers},
			Tau:         *tau,
			UseCluster2: *useCluster2,
		})
		fail(err)
		fmt.Printf("CLUSTER: %d <= diameter <= %d  (quotient nC=%d mC=%d, R=%d, rounds=%d (%d pull), %v)\n",
			res.DeltaC, res.Upper, res.Quotient.NumNodes(), res.Quotient.NumEdges(),
			res.RMax, res.Stats.Rounds, res.Stats.PullRounds, res.Elapsed.Round(time.Millisecond))
	}
	if want("bfs") {
		_, src := g.MaxDegree()
		res, err := pbfs.Run(g, src, *workers)
		fail(err)
		fmt.Printf("BFS:     %d <= diameter <= %d  (rounds=%d (%d pull), arcs=%d, %v)\n",
			res.Lower, res.Upper, res.Stats.Rounds, res.Stats.PullRounds,
			res.Stats.Messages, res.Elapsed.Round(time.Millisecond))
	}
	if want("hadi") {
		res, err := anf.Run(ctx, g, anf.Options{K: *k, Seed: *seed, Workers: *workers})
		fail(err)
		fmt.Printf("HADI:    diameter ~= %d, effective(0.9) = %.1f  (rounds=%d, %v)\n",
			res.DiameterEstimate, res.EffectiveDiameter, res.Rounds,
			res.Elapsed.Round(time.Millisecond))
	}
	if want("exact") {
		start := time.Now()
		d, exact, err := g.ExactDiameterContext(ctx, 0)
		fail(err)
		mark := "exact"
		if !exact {
			mark = "lower bound"
		}
		fmt.Printf("iFUB:    diameter = %d (%s, %v)\n", d, mark, time.Since(start).Round(time.Millisecond))
	}
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
}
