// Social-network diameter estimation: the workload that motivates the
// paper's introduction — analytics over a massive small-world graph where
// per-round communication is the bottleneck. Compares the paper's
// estimator against the parallel-BFS and HADI baselines and reports the
// cost profile of each (rounds and message volume), the quantities that
// dominate wall-clock time on a real cluster.
//
// Run with:
//
//	go run ./examples/socialdiameter
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro"
)

func main() {
	ctx := context.Background()

	// A preferential-attachment graph standing in for the paper's Twitter
	// snapshot: heavy-tailed degrees, small diameter.
	g := repro.BarabasiAlbert(100_000, 8, 7)
	fmt.Printf("social graph: n=%d m=%d\n", g.NumNodes(), g.NumEdges())

	// Paper's estimator.
	res, err := repro.ApproxDiameter(ctx, g, repro.DiameterOptions{
		Options: repro.Options{Seed: 7},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("CLUSTER: %d <= ∆ <= %d   rounds=%-5d messages=%-10d %v\n",
		res.DeltaC, res.Upper, res.Stats.Rounds, res.Stats.Messages,
		res.Elapsed.Round(time.Millisecond))

	// BFS baseline (2·ecc upper bound).
	_, src := g.MaxDegree()
	bfs, err := repro.BFSDiameter(g, src, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("BFS:     %d <= ∆ <= %d   rounds=%-5d messages=%-10d %v\n",
		bfs.Lower, bfs.Upper, bfs.Stats.Rounds, bfs.Stats.Messages,
		bfs.Elapsed.Round(time.Millisecond))

	// HADI/ANF baseline: accurate but moves K words per edge per round.
	hadi, err := repro.ANFDiameter(g, repro.ANFOptions{K: 32, Seed: 7})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("HADI:    ∆ ~= %d (eff %.1f)  rounds=%-5d words=%-12d %v\n",
		hadi.DiameterEstimate, hadi.EffectiveDiameter, hadi.Rounds,
		hadi.MessagesWords, hadi.Elapsed.Round(time.Millisecond))

	fmt.Println("\nOn a small-diameter graph all three are cheap; append a long")
	fmt.Println("tail (see the paper's Figure 1) and the Θ(∆)-round baselines")
	fmt.Println("slow down linearly while CLUSTER does not:")

	tail := 10 * int(bfs.Lower)
	gt := repro.AppendTail(g, 0, tail)
	start := time.Now()
	res2, err := repro.ApproxDiameter(ctx, gt, repro.DiameterOptions{Options: repro.Options{Seed: 7}})
	if err != nil {
		log.Fatal(err)
	}
	clusterT := time.Since(start)
	bfs2, err := repro.BFSDiameter(gt, src, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("with tail %d: CLUSTER rounds=%d (%v)  BFS rounds=%d (%v)\n",
		tail, res2.Stats.Rounds, clusterT.Round(time.Millisecond),
		bfs2.Stats.Rounds, bfs2.Elapsed.Round(time.Millisecond))
}
