// Command bench is the repository's benchmark: three workloads, every
// gated timing a ratio to a reference kernel the benchmark owns. See
// README.md in this directory; run it through run.sh, which builds it.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// metric names one reported number and its unit. The two tables below must
// list exactly what BENCHMARK.json does; TestManifestMatches checks it.
type metric struct{ name, unit string }

var endToEnd = []metric{
	{"setup_s", "s"},
	{"diameter_x_bfs", "x_bfs"},
	{"kcenter_x_bfs", "x_bfs"},
	{"oracle_build_x_bfs", "x_bfs"},
	{"oracle_build_1p_x_bfs", "x_bfs"},
	{"mr_diameter_x_bfs", "x_bfs"},
	{"mr_pairs_shuffled", "count"},
	{"diameter_ratio", "ratio"},
	{"kcenter_ratio", "ratio"},
	{"oracle_stretch", "ratio"},
	{"point_x_echo", "x_echo"},
	{"point_cpu_x_echo", "x_echo"},
	{"batch_cpu_x_echo", "x_echo"},
	{"daemon_rss_mb", "MB"},
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var (
		wlName    = flag.String("workload", "", "workload to run: road, social or fine")
		seed      = flag.Uint64("seed", 1, "seed every input is generated from (2 is the held-out seed)")
		seconds   = flag.Float64("seconds", 0, "how long the measured phases run (default: run_seconds of BENCHMARK.json)")
		trace     = flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics, 0 = end-to-end metrics")
		selfcheck = flag.Int("selfcheck", 0, "run two interleaved sets of N runs per workload and compare them")
		save      = flag.String("save", "", "with -selfcheck: write the two sets to PREFIX-a.json and PREFIX-b.json")
		compare   = flag.Bool("compare", false, "compare two saved result files given as arguments")
		echoAddr  = flag.String("echo", "", "internal: serve the echo reference on this address")
		echoBody  = flag.Int("echo-body", 0, "internal: size of the echo server's /distance body")
	)
	flag.Parse()
	if *echoAddr != "" {
		fatal(serveEcho(*echoAddr, *echoBody))
	}
	man, err := loadManifest("BENCHMARK.json")
	fatal(err)
	if *seconds <= 0 {
		*seconds = float64(man.RunSeconds)
	}
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two result files"))
		}
		fatal(compareFiles(man, flag.Arg(0), flag.Arg(1)))
	case *selfcheck > 0:
		fatal(selfCheck(man, *selfcheck, *seconds, *save))
	default:
		w := workloadByName(*wlName)
		if w == nil {
			fatal(fmt.Errorf("unknown workload %q (want road, social or fine)", *wlName))
		}
		res, err := runOnce(w, *seed, *seconds, *trace == 1)
		fatal(err)
		line, err := json.Marshal(res)
		fatal(err)
		fmt.Println(string(line))
		if !res.Correct {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runOnce runs every phase of one workload and returns the metrics the
// mode reports: end-to-end ones untraced, per-layer ones traced.
func runOnce(w *workload, seed uint64, seconds float64, traced bool) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	binDir := filepath.Dir(self)
	dir, err := os.MkdirTemp(binDir, "run-")
	if err != nil {
		return nil, err
	}
	r := &run{ctx: context.Background(), w: w, seed: seed, seconds: seconds, binDir: binDir, dir: dir, metrics: map[string]float64{}}
	if traced {
		r.tr = newTracer(w.name)
	}
	defer r.close()
	// A signal must still stop the children and remove the scratch files.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-sig:
			r.close()
			os.Exit(130)
		case <-done:
		}
	}()
	started := time.Now()
	logf("bench: workload %s, seed %d, %.0f s, %d CPUs, traced %v", w.name, seed, seconds, runtime.NumCPU(), traced)

	steps := []struct {
		name string
		fn   func() error
	}{{"prepare", r.prepare}, {"setup", r.setup}, {"measure", r.measure}, {"verify", r.verify}}
	if traced {
		steps[2].fn = r.layers
	}
	for _, step := range steps {
		t := time.Now()
		if err := step.fn(); err != nil {
			return nil, fmt.Errorf("%s: %w", step.name, err)
		}
		logf("bench: %s took %.1f s", step.name, time.Since(t).Seconds())
	}
	r.metrics["bench.run_s"] = time.Since(started).Seconds()
	r.metrics["bench.ops_attempted"] = float64(r.attempted)
	r.metrics["bench.ops_failed"] = float64(r.failed)

	table := endToEnd
	if traced {
		table = perLayer
		path := filepath.Join(binDir, fmt.Sprintf("trace-%s-%d.json", w.name, seed))
		if err := r.tr.writeChrome(path); err != nil {
			return nil, err
		}
		logf("trace: %d spans written to %s", len(r.tr.spans), path)
	}
	res := &result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, m := range table {
		v, ok := r.metrics[m.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", m.name)
		}
		res.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
		logf("  %-34s %14.6g %s", m.name, v, m.unit)
	}
	logf("bench: %d operations, %d failed, %.1f s", r.attempted, r.failed, time.Since(started).Seconds())
	return res, nil
}
