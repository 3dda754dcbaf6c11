// Command tables regenerates the tables and figures of the paper's
// Section 6 evaluation on the synthetic benchmark suite.
//
// Usage:
//
//	tables -experiment all|table1|table2|table3|table4|figure1|mrmodel \
//	       [-scale 1.0] [-seed 42] [-workers 0]
//
// Scale 1.0 is the default experiment scale (minutes for the full suite);
// the paper's mesh1000 corresponds to -scale 3 on the mesh dataset.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"

	"repro/internal/expt"
)

func main() {
	experiment := flag.String("experiment", "all",
		"which experiment to run: all, table1, table2, table3, table4, figure1, mrmodel, lemma1, pipeline")
	scale := flag.Float64("scale", 1.0, "dataset scale factor (linear dimension)")
	seed := flag.Uint64("seed", 42, "random seed")
	workers := flag.Int("workers", 0, "BSP workers (0 = GOMAXPROCS)")
	flag.Parse()

	cfg := expt.Config{Scale: *scale, Seed: *seed, Workers: *workers}

	// Ctrl-C cancels the running experiment at its next round barrier;
	// after the context fires, default handling returns, so a second
	// Ctrl-C kills immediately (covering the baselines and exact-diameter
	// references that are not context-aware).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	context.AfterFunc(ctx, stop)
	want := func(name string) bool {
		return *experiment == "all" || strings.EqualFold(*experiment, name)
	}
	ran := false

	if want("table1") {
		ran = true
		rows, err := expt.Table1(cfg)
		fail(err)
		fmt.Println(expt.FormatTable1(rows))
	}
	if want("table2") {
		ran = true
		rows, err := expt.Table2(ctx, cfg)
		fail(err)
		fmt.Println(expt.FormatTable2(rows))
	}
	if want("table3") {
		ran = true
		rows, err := expt.Table3(ctx, cfg)
		fail(err)
		fmt.Println(expt.FormatTable3(rows))
	}
	if want("table4") {
		ran = true
		rows, err := expt.Table4(ctx, cfg)
		fail(err)
		fmt.Println(expt.FormatTable4(rows))
	}
	if want("figure1") {
		ran = true
		points, err := expt.Figure1(ctx, cfg, nil)
		fail(err)
		fmt.Println(expt.FormatFigure1(points))
	}
	if want("mrmodel") {
		ran = true
		rep, err := expt.MRModel(ctx, cfg)
		fail(err)
		fmt.Println(expt.FormatMRReport(rep))
	}
	if want("lemma1") {
		ran = true
		points, slope, err := expt.Lemma1Sweep(ctx, cfg, 0, nil)
		fail(err)
		fmt.Println(expt.FormatLemma1(points, slope))
	}
	if want("pipeline") {
		ran = true
		rows, err := expt.PipelineAblation(ctx, cfg)
		fail(err)
		fmt.Println(expt.FormatPipelineAblation(rows))
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *experiment)
		os.Exit(2)
	}
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
}
