package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
)

// manifest is BENCHMARK.json, the one place bounds are written down.
type manifest struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadManifest(path string) (*manifest, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("run from the root of the checkout: %w", err)
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}

// savedRun is one line of a result file: a run's result and what it ran.
type savedRun struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	result
}

// selfCheck runs two interleaved sets of n untraced runs per workload on
// the current tree, seeds 1..n in both, and compares the sets by the rule
// the driver applies to two versions of the code.
func selfCheck(man *manifest, n int, seconds float64, save string) error {
	if n < 3 {
		return fmt.Errorf("-selfcheck needs at least 3 runs per set")
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var sets [2][]savedRun
	for _, w := range man.Workloads {
		for seed := uint64(1); seed <= uint64(n); seed++ {
			for set := range sets {
				logf("selfcheck: %s seed %d set %c", w.Name, seed, 'a'+set)
				cmd := exec.Command(self, "--workload", w.Name, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds), "--trace", "0")
				var out, errOut bytes.Buffer
				cmd.Stdout, cmd.Stderr = &out, &errOut
				if err := cmd.Run(); err != nil {
					return fmt.Errorf("run failed: %w\n%s", err, errOut.String())
				}
				lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
				run := savedRun{Workload: w.Name, Seed: seed}
				if err := json.Unmarshal(lines[len(lines)-1], &run.result); err != nil {
					return fmt.Errorf("run printed no result: %w", err)
				}
				sets[set] = append(sets[set], run)
			}
		}
	}
	if save != "" {
		for set, runs := range sets {
			if err := writeRuns(fmt.Sprintf("%s-%c.json", save, 'a'+set), runs); err != nil {
				return err
			}
		}
	}
	return compareSets(os.Stdout, man, sets[0], sets[1])
}

func writeRuns(path string, runs []savedRun) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, r := range runs {
		if err := enc.Encode(r); err != nil {
			return err
		}
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

func readRuns(path string) ([]savedRun, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var runs []savedRun
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var r savedRun
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		runs = append(runs, r)
	}
	return runs, sc.Err()
}

func compareFiles(man *manifest, a, b string) error {
	ra, err := readRuns(a)
	if err != nil {
		return err
	}
	rb, err := readRuns(b)
	if err != nil {
		return err
	}
	return compareSets(os.Stdout, man, ra, rb)
}

// worsening is how much worse b is than a, as a share of a, for a metric
// whose direction is better ("lower" or "higher"); negative is an
// improvement.
func worsening(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// compareSets prints, per workload and end-to-end metric, both sets'
// medians, quartiles and spread, and fails if a median of b is worse than
// a's by more than the metric's bound or if a run was incorrect. A spread
// above the bound is marked but does not fail: the driver applies that rule
// to ten runs, and with fewer the quartiles are the extremes.
func compareSets(out io.Writer, man *manifest, a, b []savedRun) error {
	values := func(runs []savedRun, workload, name string) []float64 {
		var out []float64
		for _, r := range runs {
			if r.Workload == workload {
				if m, ok := r.Metrics[name]; ok {
					out = append(out, m.Value)
				}
			}
		}
		return out
	}
	var problems []string
	for _, r := range append(append([]savedRun(nil), a...), b...) {
		if !r.Correct || r.Failed > 0 {
			problems = append(problems, fmt.Sprintf("%s seed %d: %d of %d operations failed", r.Workload, r.Seed, r.Failed, r.Attempted))
		}
	}
	seen := map[string]bool{}
	var names []string
	for _, r := range a {
		if !seen[r.Workload] {
			seen[r.Workload] = true
			names = append(names, r.Workload)
		}
	}
	sort.Strings(names)
	fmt.Fprintf(out, "%-8s %-22s %5s | %12s %12s %12s %7s | %12s %12s %12s %7s | %8s %6s\n", "workload", "metric", "runs",
		"a q1", "a median", "a q3", "spread", "b q1", "b median", "b q3", "spread", "b vs a", "bound")
	for _, w := range names {
		for _, m := range man.EndToEnd {
			va, vb := values(a, w, m.Name), values(b, w, m.Name)
			if len(va) < 2 || len(vb) < 2 {
				problems = append(problems, fmt.Sprintf("%s/%s: fewer than two runs on a side", w, m.Name))
				continue
			}
			a1, a2, a3 := quartiles(va)
			b1, b2, b3 := quartiles(vb)
			worse := worsening(a2, b2, m.Better)
			verdict := ""
			if worse > m.Bound {
				verdict = "  WORSE"
				problems = append(problems, fmt.Sprintf("%s/%s: median %.6g vs %.6g, %.1f%% worse, bound %.1f%%", w, m.Name, b2, a2, 100*worse, 100*m.Bound))
			}
			if m.Name != "setup_s" && max(spread(va), spread(vb)) > m.Bound {
				verdict += "  NOISY"
			}
			fmt.Fprintf(out, "%-8s %-22s %5d | %12.6g %12.6g %12.6g %6.2f%% | %12.6g %12.6g %12.6g %6.2f%% | %+7.2f%% %5.1f%%%s\n",
				w, m.Name, len(va), a1, a2, a3, 100*spread(va), b1, b2, b3, 100*spread(vb), 100*worse, 100*m.Bound, verdict)
		}
	}
	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintln(out, "FAIL:", p)
		}
		return fmt.Errorf("%d problems", len(problems))
	}
	fmt.Fprintln(out, "PASS: every median of the second set within its bound of the first")
	return nil
}
