// Command kcenter solves approximate k-center on an edge-list graph with
// the paper's CLUSTER-based algorithm and the Gonzalez greedy baseline.
//
// Usage:
//
//	kcenter -in graph.txt -k 100
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"

	"repro/internal/core"
	"repro/internal/gonzalez"
	"repro/internal/graph"
)

func main() {
	in := flag.String("in", "", "input edge-list file (required)")
	k := flag.Int("k", 10, "number of centers")
	seed := flag.Uint64("seed", 1, "random seed")
	workers := flag.Int("workers", 0, "BSP workers (0 = GOMAXPROCS)")
	flag.Parse()

	if *in == "" {
		fmt.Fprintln(os.Stderr, "missing -in")
		os.Exit(2)
	}
	g, err := graph.LoadEdgeList(*in)
	fail(err)
	fmt.Println("graph:", graph.Summarize(g))

	// Ctrl-C cancels the in-flight decomposition at its next round barrier;
	// after the context fires, default handling returns, so a second
	// Ctrl-C kills immediately (covering the non-context-aware Gonzalez
	// baseline pass).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	go func() {
		<-ctx.Done()
		stop()
	}()

	start := time.Now()
	res, err := core.KCenter(ctx, g, *k, core.Options{Seed: *seed, Workers: *workers})
	fail(err)
	fmt.Printf("CLUSTER k-center:  %d centers, radius %d (merged=%v, %v)\n",
		len(res.Centers), res.Radius, res.Merged, time.Since(start).Round(time.Millisecond))

	start = time.Now()
	centers, base, err := gonzalez.KCenter(g, *k, 0)
	fail(err)
	fmt.Printf("Gonzalez baseline: %d centers, radius %d (%v)\n",
		len(centers), base, time.Since(start).Round(time.Millisecond))
	if base > 0 {
		fmt.Printf("ratio: %.2f (Gonzalez is a 2-approximation; CLUSTER is O(log^3 n))\n",
			float64(res.Radius)/float64(base))
	}
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
}
