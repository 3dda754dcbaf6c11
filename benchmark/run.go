package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/mr"
	"repro/internal/quotient"
)

const (
	setupReps  = 3                      // cold starts per run; setup_s is their median
	warmPoint  = 4000                   // point requests of the fixed warm-up, per server
	warmBatch  = 64                     // batch requests of the fixed warm-up, per server
	sliceDur   = 200 * time.Millisecond // one matched pair of serving slices
	pointBurst = 128                    // requests per burst when interleaving point queries
	batchBurst = 16                     // and batches
	minRounds  = 5                      // rounds of the schedule a run never goes below
)

// run is one invocation on one workload: its inputs, the processes it
// started, the operations it counted and the metrics it has so far.
type run struct {
	ctx     context.Context
	w       *workload
	seed    uint64
	seconds float64
	binDir  string // where run.sh put reprod and this binary
	dir     string // scratch directory of this run, removed at the end
	tr      *tracer

	in         *inputs
	ref        *refBFS
	refSeconds []float64 // seconds per sweep of every reference block so far

	daemon, echo             *proc
	daemonT, echoT           *target // NumCPU connections each, for point queries
	daemonBatchT, echoBatchT *target // one connection each, for batches
	pointReqs, batchReqs     [][]byte

	attempted, failed int
	metrics           map[string]float64

	// What the offline operations returned, by level, for the verify
	// phase.
	diam    []diamOut
	kcenter []kcenterOut
	oracle  []oracleOut
	mrOut   []mrOut

	// Kept between the sections of a traced run.
	buildRatio   float64            // one-shot BuildOracle in x_bfs
	built        *core.Oracle       // the staged oracle of level 0
	quotient     *graph.Weighted    // and its weighted quotient
	scrapeBefore map[string]float64 // the daemon's counters before the live sections
}

type diamOut struct {
	done          bool
	upper, deltaC int64
}

type kcenterOut struct {
	done    bool
	radius  int32
	centers []int32
}

type oracleOut struct {
	done         bool
	clusters     int
	upper, lower []int64 // Query and LowerQuery for every (source, target) of the sample
	upper1p      []int64 // Query answers of the 1-worker build
}

type mrOut struct {
	wq       *graph.Weighted
	diameter int64
	shuffled int64
}

func logf(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }

// check counts one operation and reports a failed one.
func (r *run) check(ok bool, format string, args ...any) bool {
	r.attempted++
	if !ok {
		r.failed++
		if r.failed <= 20 {
			logf("FAILED: "+format, args...)
		}
	}
	return ok
}

// timed runs fn inside a span and returns its wall time in seconds.
func (r *run) timed(name string, iter int, fn func()) float64 {
	id := r.tr.begin(name, iter)
	t := time.Now()
	fn()
	d := time.Since(t).Seconds()
	r.tr.end(id)
	return d
}

func (r *run) close() {
	for _, t := range []*target{r.daemonT, r.echoT, r.daemonBatchT, r.echoBatchT} {
		if t != nil {
			t.close()
		}
	}
	r.daemon.stop()
	r.echo.stop()
	os.RemoveAll(r.dir)
}

// prepare makes the inputs and everything the clocks must not include.
func (r *run) prepare() error {
	var g, side *graph.Graph
	r.metrics["graph.gen_s"] = r.timed("graph.gen", 0, func() { g, side = r.w.gen(r.seed), r.w.side(r.seed) })
	var err error
	if r.in, err = makeInputs(r.ctx, r.w, r.seed, g, side); err != nil {
		return err
	}
	logf("%s seed %d: n=%d arcs=%d, MR side n=%d, inputs %016x", r.w.name, r.seed,
		r.in.g.NumNodes(), r.in.g.NumArcs(), r.in.side.NumNodes(), r.in.hash)
	if want, pinned := pinnedHashes[r.w.name][r.seed]; pinned {
		r.check(want == r.in.hash, "inputs of %s seed %d hash to %016x, pinned %016x: a generator changed",
			r.w.name, r.seed, r.in.hash, want)
	}
	r.metrics["graph.save_edgelist_s"] = r.timed("graph.save_edgelist", 0, func() {
		err = graph.SaveEdgeList(r.edgeList(), r.in.g)
	})
	if err != nil {
		return err
	}
	if r.ref, err = newRefBFS(r.in.g); err != nil {
		return err
	}
	reached, _ := r.ref.sweep(0)
	r.check(reached == r.in.g.NumNodes(), "ref.bfs reached %d of %d nodes", reached, r.in.g.NumNodes())

	r.pointReqs = make([][]byte, len(r.in.pairs))
	for i, p := range r.in.pairs {
		r.pointReqs[i] = pointRequest(p[0], p[1])
	}
	for _, f := range r.in.frames {
		r.batchReqs = append(r.batchReqs, batchRequest(ctPairsBinary, f))
	}
	r.diam = make([]diamOut, r.w.diameterSeeds)
	r.kcenter = make([]kcenterOut, r.w.kcenterSeeds)
	r.oracle = make([]oracleOut, r.w.oracleSeeds)
	r.mrOut = make([]mrOut, mrSeeds)
	return nil
}

func (r *run) edgeList() string { return filepath.Join(r.dir, "graph.txt") }

// startDaemon launches reprod with the workload's granularity and the
// first pinned oracle seed as its defaults.
func (r *run) startDaemon(tag string, extra ...string) (*proc, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	args := append([]string{"-addr", addr, "-name", graphName,
		"-tau", strconv.Itoa(r.w.oracleTau), "-seed", strconv.FormatUint(r.in.orSeeds[0], 10)}, extra...)
	return startProc(filepath.Join(r.dir, "reprod-"+tag+".log"), addr, filepath.Join(r.binDir, "reprod"), args...)
}

// setup cold-starts the daemon setupReps times. One repetition is the
// wall time from launching reprod (edge-list load, eager oracle build) to
// /healthz answering, plus the fixed warm-up; setup_s is the median and
// daemon_rss_mb the lowest peak. The last daemon stays up for the serving
// slices.
func (r *run) setup() error {
	var times, rss []float64
	for rep := 0; rep < setupReps; rep++ {
		if r.daemonT != nil {
			r.daemonT.close()
			r.daemonBatchT.close()
			r.daemon.stop()
		}
		id := r.tr.begin("setup.cold_start", rep)
		t0 := time.Now()
		d, err := r.startDaemon(strconv.Itoa(rep), "-graph", r.edgeList())
		if err != nil {
			return err
		}
		r.daemon = d
		if err := d.waitHealthy(120 * time.Second); err != nil {
			return err
		}
		startS := time.Since(t0).Seconds()
		r.tr.end(id)
		if r.daemonT, err = newTarget(d, runtime.NumCPU()); err != nil {
			return err
		}
		if r.daemonBatchT, err = newTarget(d, 1); err != nil {
			return err
		}
		if rep == 0 {
			if err := r.startEcho(); err != nil {
				return err
			}
		}
		id = r.tr.begin("setup.warm_up", rep)
		t1 := time.Now()
		if err := r.warmUp(r.daemonT, r.daemonBatchT); err != nil {
			return err
		}
		times = append(times, startS+time.Since(t1).Seconds())
		r.tr.end(id)
		mb, err := r.daemon.peakRSSMB()
		if err != nil {
			return err
		}
		rss = append(rss, mb)
	}
	// The peak depends on when the daemon's collector happened to run
	// while the edge list was loading; the lowest of the cold starts is
	// the one least inflated by that.
	r.metrics["setup_s"], r.metrics["daemon_rss_mb"] = median(times), slices.Min(rss)
	logf("setup: %.3f s median of %.3f; daemon peak RSS %.1f MB lowest of %.1f", r.metrics["setup_s"], times, r.metrics["daemon_rss_mb"], rss)
	return nil
}

// startEcho sizes the echo server's /distance body as the daemon's mean
// answer to the first 64 pairs, starts it and warms it.
func (r *run) startEcho() error {
	total := 0
	for _, req := range r.pointReqs[:64] {
		status, body, err := r.daemonT.conns[0].do(req)
		if !r.check(err == nil && status == 200, "sizing request: status %d, %v", status, err) {
			return fmt.Errorf("daemon does not answer /distance")
		}
		total += len(body)
	}
	addr, err := freeAddr()
	if err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	r.echo, err = startProc(filepath.Join(r.dir, "echo.log"), addr, self,
		"--echo", addr, "--echo-body", strconv.Itoa((total+32)/64))
	if err != nil {
		return err
	}
	if err := r.echo.waitHealthy(30 * time.Second); err != nil {
		return err
	}
	if r.echoT, err = newTarget(r.echo, runtime.NumCPU()); err != nil {
		return err
	}
	if r.echoBatchT, err = newTarget(r.echo, 1); err != nil {
		return err
	}
	return r.warmUp(r.echoT, r.echoBatchT)
}

// warmUp sends the fixed warm-up: warmPoint point requests over the point
// connections, then warmBatch frames over the batch connection.
func (r *run) warmUp(point, batch *target) error {
	s, err := closedLoop(point, r.pointReqs, warmPoint/len(point.conns), false)
	if err != nil {
		return err
	}
	r.attempted += s.requests
	r.failed += s.failed
	s, err = closedLoop(batch, r.batchReqs, warmBatch, false)
	if err != nil {
		return err
	}
	r.attempted += s.requests
	r.failed += s.failed
	point.cursor, batch.cursor = 0, 0
	return nil
}

// refBlock runs one reference block inside a span and returns its mean
// seconds per sweep.
func (r *run) refBlock() float64 {
	id := r.tr.begin("ref.bfs", len(r.refSeconds))
	s := r.ref.block()
	r.tr.end(id)
	r.refSeconds = append(r.refSeconds, s)
	return s
}

// op is one offline operation of the round-robin schedule and what its
// repetitions have measured so far.
type op struct {
	metric   string // the end-to-end ratio it yields
	span     string // the call it times
	levels   int    // repetition i runs at level i mod levels
	perRound int    // repetitions per round
	fn       func(i int) error

	ratios  []float64 // seconds ÷ neighbouring seconds per reference sweep
	seconds []float64
}

// pair times one repetition of o between two reference blocks. before is
// the block that preceded it; the block that follows is returned, to
// serve as the next repetition's before. The repetition's ratio is its
// time over the mean of the two blocks' seconds per sweep: a host that
// slows down for a while slows all three, and the ratio stays.
func (r *run) pair(o *op, before float64) (after float64, err error) {
	i := len(o.ratios)
	d := r.timed(o.span, i, func() { err = o.fn(i) })
	if !r.check(err == nil, "%s: %v", o.span, err) {
		return 0, fmt.Errorf("%s: %w", o.span, err)
	}
	runtime.GC() // the next block and call start from a collected heap
	after = r.refBlock()
	o.seconds = append(o.seconds, d)
	o.ratios = append(o.ratios, pairRatio(d, before, after))
	return after, nil
}

// pairRatio is an operation's seconds in units of reference sweeps: over
// the mean seconds per sweep of the blocks before and after it.
func pairRatio(seconds, before, after float64) float64 { return seconds / ((before + after) / 2) }

// levelTrim is the share of an operation's levels left out at each end
// when they are averaged.
const levelTrim = 0.125

// value aggregates the ratios: the median within each level, then the
// mean over levels without the highest and the lowest eighth of them.
// Repetitions of one level do identical work, so their median sheds a
// disturbed repetition; levels differ in work, so they average. Where a
// level has a repetition or two and no median to speak of, a stall inflates
// the level, and the trimming sheds it with the levels whose decomposition
// seed makes them many times the work of the rest; with fewer than eight
// levels nothing is trimmed.
func (o *op) value() float64 {
	byLevel := make([][]float64, o.levels)
	for i, x := range o.ratios {
		byLevel[i%o.levels] = append(byLevel[i%o.levels], x)
	}
	perLevel := make([]float64, o.levels)
	for j, xs := range byLevel {
		perLevel[j] = median(xs)
	}
	return trimmedMean(perLevel, levelTrim)
}

// The four offline operations and the MR pipeline. Each takes the
// repetition number and runs at level i mod (its number of seeds); the
// first call at a level keeps what verify needs.

func (r *run) opDiameter(i int) error {
	j := i % r.w.diameterSeeds
	opt := core.Options{Seed: algSeed(r.seed, j), Workers: runtime.NumCPU()}
	res, err := core.ApproxDiameter(r.ctx, r.in.g, core.DiameterOptions{Options: opt})
	if err != nil {
		return err
	}
	if !r.diam[j].done {
		r.diam[j] = diamOut{done: true, upper: res.Upper, deltaC: res.DeltaC}
	}
	return nil
}

func (r *run) opKCenter(i int) error {
	j := i % r.w.kcenterSeeds
	res, err := core.KCenter(r.ctx, r.in.g, r.w.kcenterK, core.Options{Seed: algSeed(r.seed, j), Workers: runtime.NumCPU()})
	if err != nil {
		return err
	}
	if !r.kcenter[j].done {
		r.kcenter[j] = kcenterOut{done: true, radius: res.Radius, centers: append([]int32(nil), res.Centers...)}
	}
	return nil
}

// sampleAnswers asks fn for every (source, target) pair of the sample.
func (r *run) sampleAnswers(fn func(u, v int32) int64) []int64 {
	out := make([]int64, 0, len(r.in.sources)*len(r.in.targets))
	for _, a := range r.in.sources {
		for _, b := range r.in.targets {
			out = append(out, fn(a, b))
		}
	}
	return out
}

func (r *run) opOracle(workers int) func(i int) error {
	return func(i int) error {
		j := i % r.w.oracleSeeds
		o, err := core.BuildOracle(r.ctx, r.in.g, r.w.oracleTau, false, core.Options{Seed: r.in.orSeeds[j], Workers: workers})
		if err != nil {
			return err
		}
		out := &r.oracle[j]
		if workers == 1 {
			if out.upper1p == nil {
				out.upper1p = r.sampleAnswers(o.Query)
			}
			return nil
		}
		if !out.done {
			out.done = true
			out.clusters = o.NumClusters()
			out.upper = r.sampleAnswers(o.Query)
			out.lower = r.sampleAnswers(o.LowerQuery)
		}
		return nil
	}
}

// opMR is the pipeline serve.MRDiameter runs: decomposition, weighted
// quotient, repeated min-plus squaring on the MR engine.
func (r *run) opMR(i int) error {
	j := i % mrSeeds
	cl, err := core.ClusterContext(r.ctx, r.in.side, r.w.mrTau, core.Options{Seed: r.in.mrSeeds[j], Workers: runtime.NumCPU()})
	if err != nil {
		return err
	}
	_, wq, err := quotient.BuildWeighted(r.in.side, cl.Owner, cl.Dist, cl.NumClusters())
	if err != nil {
		return err
	}
	eng := mr.NewEngine(mr.Config{})
	defer eng.Close()
	eng.SetContext(r.ctx)
	d, err := eng.DiameterByRepeatedSquaring(wq)
	if err != nil {
		return err
	}
	out := &r.mrOut[j]
	if out.wq == nil {
		*out = mrOut{wq: wq, diameter: d, shuffled: eng.TotalShuffled()}
	} else if eng.TotalShuffled() != out.shuffled || d != out.diameter {
		return fmt.Errorf("MR pipeline is not deterministic: %d pairs / diameter %d, then %d / %d",
			out.shuffled, out.diameter, eng.TotalShuffled(), d)
	}
	return nil
}

func (r *run) offlineOps() []*op {
	w := r.w
	return []*op{
		{metric: "diameter_x_bfs", span: "core.ApproxDiameter", levels: w.diameterSeeds, perRound: w.diameterPerRound, fn: r.opDiameter},
		{metric: "kcenter_x_bfs", span: "core.KCenter", levels: w.kcenterSeeds, perRound: w.kcenterPerRound, fn: r.opKCenter},
		{metric: "oracle_build_x_bfs", span: "core.BuildOracle", levels: w.oracleSeeds, perRound: w.oraclePerRound, fn: r.opOracle(runtime.NumCPU())},
		{metric: "oracle_build_1p_x_bfs", span: "core.BuildOracle.1p", levels: w.oracleSeeds, perRound: w.oraclePerRound, fn: r.opOracle(1)},
		{metric: "mr_diameter_x_bfs", span: "mr.pipeline", levels: mrSeeds, perRound: 2, fn: r.opMR},
	}
}

// sides accumulates the matched serving slices of a run per server.
type sides struct {
	wall, cpu    []float64 // daemon ÷ echo per request, per matched pair
	daemon, echo slice     // totals
}

// slicePair drives the daemon and the echo server interleaved for
// sliceDur (see interleave) and adds the matched pair to out.
func (r *run) slicePair(name string, daemon, echo *target, reqs [][]byte, burstLen int, out *sides) error {
	id := r.tr.begin(name, len(out.wall))
	d, e, err := interleave(daemon, echo, reqs, burstLen, sliceDur, r.tr != nil)
	r.tr.end(id)
	if err != nil {
		return err
	}
	r.attempted += d.requests + e.requests
	r.failed += d.failed + e.failed
	if d.failed+e.failed > 0 {
		return fmt.Errorf("%s: %d daemon and %d echo requests failed", name, d.failed, e.failed)
	}
	out.addPair(d, e)
	return nil
}

// addPair records one matched pair of slices.
func (s *sides) addPair(d, e slice) {
	s.wall = append(s.wall, d.perRequest()/e.perRequest())
	s.cpu = append(s.cpu, d.cpuPerRequest()/e.cpuPerRequest())
	s.daemon.add(d)
	s.echo.add(e)
}

func (r *run) logSides(name string, s *sides) {
	logf("%-6s wall %.3f x_echo, cpu %.3f x_echo  (%d slice pairs, spreads %.1f%% / %.1f%%; daemon %d requests at %.1f µs wall, %.1f µs cpu; echo %d at %.1f, %.1f)",
		name, median(s.wall), median(s.cpu), len(s.wall), 100*spread(s.wall), 100*spread(s.cpu),
		s.daemon.requests, 1e6*s.daemon.perRequest(), 1e6*s.daemon.cpuPerRequest(),
		s.echo.requests, 1e6*s.echo.perRequest(), 1e6*s.echo.cpuPerRequest())
}

// measure is the timed part of an untraced run. It goes round the whole
// schedule — every offline operation between reference blocks, then a
// matched slice of point queries and one of batches — for as many rounds
// as fit in --seconds. Every metric therefore samples the whole length of
// the run, and a stretch in which the host misbehaves costs each of them a
// few samples, which their medians shed, not one of them all of its
// samples.
func (r *run) measure() error {
	ops := r.offlineOps()
	// Enough rounds for every level of every operation to run.
	rounds := minRounds
	for _, o := range ops {
		rounds = max(rounds, (o.levels+o.perRound-1)/o.perRound)
	}
	point, batch := &sides{}, &sides{}
	start := time.Now()
	for round := 0; ; round++ {
		elapsed := time.Since(start).Seconds()
		if round >= rounds && elapsed+elapsed/float64(round)/2 > r.seconds {
			break
		}
		id := r.tr.begin("round", round)
		before := r.refBlock()
		for _, o := range ops {
			for k := 0; k < o.perRound; k++ {
				var err error
				if before, err = r.pair(o, before); err != nil {
					return err
				}
			}
		}
		for k := 0; k < r.w.slicePairs; k++ {
			if err := r.slicePair("serve.point", r.daemonT, r.echoT, r.pointReqs, pointBurst, point); err != nil {
				return err
			}
			if err := r.slicePair("serve.batch", r.daemonBatchT, r.echoBatchT, r.batchReqs, batchBurst, batch); err != nil {
				return err
			}
		}
		r.tr.end(id)
	}
	for _, o := range ops {
		r.metrics[o.metric] = o.value()
		logf("%-22s %9.3f  (%d repetitions over %d levels, spread %.1f%%; median %.4f s)", o.metric,
			o.value(), len(o.ratios), o.levels, 100*spread(o.ratios), median(o.seconds))
	}
	var shuffled []float64
	for _, m := range r.mrOut {
		shuffled = append(shuffled, float64(m.shuffled))
	}
	r.metrics["mr_pairs_shuffled"] = mean(shuffled)
	r.metrics["point_x_echo"] = median(point.wall)
	r.metrics["point_cpu_x_echo"] = median(point.cpu)
	r.metrics["batch_cpu_x_echo"] = median(batch.cpu)
	r.logSides("point", point)
	r.logSides("batch", batch)
	logf("ref.bfs %.5f s/sweep median over %d blocks (spread %.1f%%); %.1f s measured", median(r.refSeconds), len(r.refSeconds),
		100*spread(r.refSeconds), time.Since(start).Seconds())

	for j, d := range r.diam {
		r.check(d.done, "diameter: level %d never ran", j)
	}
	for j, k := range r.kcenter {
		r.check(k.done, "kcenter: level %d never ran", j)
	}
	for j, o := range r.oracle {
		r.check(o.done && o.upper1p != nil, "oracle: level %d never ran at both worker counts", j)
	}
	for j, m := range r.mrOut {
		r.check(m.wq != nil, "mr: level %d never ran", j)
	}
	return nil
}
