package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/bsp"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/mr"
	"repro/internal/pbfs"
	"repro/internal/quotient"
	"repro/internal/serve"
	"repro/internal/snapshot"
)

// perLayer lists the metrics of a traced run, layer by layer; a layer's
// name is the module's. README.md says which end-to-end metric each should
// move and on which workload.
var perLayer = []metric{
	{"ref.bfs_s", "s"},
	{"ref.echo_rps", "1/s"},
	{"ref.echo_cpu_us", "us"},

	{"graph.gen_s", "s"},
	{"graph.save_edgelist_s", "s"},
	{"graph.load_edgelist_s", "s"},
	{"graph.ifub_s", "s"},
	{"graph.ifub_weighted_s", "s"},
	{"graph.multisource_bfs_s", "s"},

	{"bsp.bfs_s", "s"},
	{"bsp.bfs_1p_s", "s"},
	{"bsp.bfs_rounds", "count"},
	{"bsp.bfs_pull_rounds", "count"},
	{"bsp.bfs_arcs", "count"},
	{"bsp.us_per_round", "us"},
	{"bsp.arcs_per_s", "1/s"},
	{"bsp.sssp_s", "s"},
	{"bsp.sssp_buckets", "count"},
	{"bsp.sssp_rounds", "count"},
	{"bsp.sssp_relaxations", "count"},
	{"bsp.us_per_bucket", "us"},
	{"bsp.ns_per_relaxation", "ns"},

	{"core.cluster_s", "s"},
	{"core.cluster_1p_s", "s"},
	{"core.cluster_rounds", "count"},
	{"core.cluster_pull_rounds", "count"},
	{"core.cluster_arcs", "count"},
	{"core.cluster_max_frontier", "count"},
	{"core.clusters", "count"},
	{"core.rmax", "count"},
	{"core.oracle_from_clustering_s", "s"},
	{"core.apsp_self_s", "s"},
	{"core.apsp_rounds", "count"},
	{"core.apsp_buckets", "count"},
	{"core.apsp_relaxations", "count"},
	{"core.kcenter_merge_self_s", "s"},
	{"core.eval_centers_s", "s"},
	{"core.diameter_s", "s"},
	{"core.kcenter_s", "s"},
	{"core.oracle_build_s", "s"},
	{"core.oracle_build_1p_s", "s"},
	{"core.oracle_scaling", "ratio"},
	{"core.oracle_table_mb", "MB"},
	{"core.query_ns", "ns"},
	{"core.query_batch_ns_per_pair", "ns"},
	{"core.query_batch_allocs", "count"},

	{"quotient.build_weighted_s", "s"},
	{"quotient.build_s", "s"},
	{"quotient.nodes", "count"},
	{"quotient.edges", "count"},

	{"mr.cluster_s", "s"},
	{"mr.grow_rounds", "count"},
	{"mr.grow_pairs_shuffled", "count"},
	{"mr.squaring_s", "s"},
	{"mr.squaring_rounds", "count"},
	{"mr.squaring_pairs_shuffled", "count"},
	{"mr.max_reducer_input", "count"},
	{"mr.pairs_per_s", "1/s"},
	{"mr.useful_pair_ratio", "ratio"},
	{"mr.quotient_nodes", "count"},

	{"snapshot.write_s", "s"},
	{"snapshot.read_s", "s"},
	{"snapshot.bytes", "B"},
	{"snapshot.restart_s", "s"},

	{"serve.handler_point_us", "us"},
	{"serve.handler_point_allocs", "count"},
	{"serve.handler_batch_us", "us"},
	{"serve.point_rps", "1/s"},
	{"serve.point_p50_us", "us"},
	{"serve.point_p99_us", "us"},
	{"serve.point_cpu_us", "us"},
	{"serve.batch_pairs_per_s", "1/s"},
	{"serve.batch_cpu_us", "us"},
	{"serve.cold_answer_s", "s"},
	{"serve.cold_overhead_s", "s"},
	{"serve.hot_x_echo_under_build", "x_echo"},
	{"serve.builds_under_load", "count"},
	{"serve.open_2k_p50_us", "us"},
	{"serve.open_2k_p99_us", "us"},
	{"serve.open_4k_p50_us", "us"},
	{"serve.open_4k_p99_us", "us"},
	{"serve.open_8k_p50_us", "us"},
	{"serve.open_8k_p99_us", "us"},
	{"serve.open_gen_late_p99_us", "us"},
	{"serve.open_max_rate_p99_under_5ms", "1/s"},
	{"serve.requests_total", "count"},
	{"serve.shed_total", "count"},
	{"serve.errors_total", "count"},
	{"serve.cache_hits", "count"},
	{"serve.cache_misses", "count"},

	{"obs.scrape_ms", "ms"},
	{"obs.families", "count"},

	{"bench.trace_overhead", "ratio"},
	{"bench.ops_attempted", "count"},
	{"bench.ops_failed", "count"},
	{"bench.run_s", "s"},
}

// sample times fn inside spans up to three times, stopping early once a
// second has gone, and returns the median seconds. Expensive calls thus
// run once, cheap ones get a median.
func (r *run) sample(name string, fn func() error) (float64, error) {
	var secs []float64
	start := time.Now()
	for i := 0; i < 3 && (i == 0 || time.Since(start) < time.Second); i++ {
		var err error
		secs = append(secs, r.timed(name, i, func() { err = fn() }))
		if !r.check(err == nil, "%s: %v", name, err) {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
	}
	return median(secs), nil
}

// oracleTau is the granularity the oracle is built at, resolved the way
// core.BuildOracle resolves it.
func (r *run) oracleTau() int {
	if r.w.oracleTau > 0 {
		return r.w.oracleTau
	}
	return core.DefaultOracleTau(r.in.g.NumNodes())
}

// kcenterTau is the granularity core.KCenter decomposes at for k centers:
// k / log²n, at least 1.
func kcenterTau(k, n int) int {
	logn := math.Log2(float64(max(n, 2)))
	return max(1, int(float64(k)/(logn*logn)))
}

// layers is the measured part of a traced run: every call into a layer is
// made from here, inside a span, and the per-layer metrics are read off
// the spans and the layers' own counters.
func (r *run) layers() error {
	for _, step := range []func() error{
		r.layerOps, r.layerBuild, r.layerKCenter, r.layerEngines, r.layerQuery, r.layerMR,
		r.layerSnapshotAndHandler, r.layerLive, r.layerOpenLoop, r.layerUnderBuild, r.layerCold,
	} {
		if err := step(); err != nil {
			return err
		}
	}
	r.metrics["ref.bfs_s"] = median(r.refSeconds)
	return nil
}

// layerOps runs the four offline operations in bracketed pairs, as the
// untraced run does, alternately with the tracer off and on. The traced
// repetitions give the operations' plain seconds; the two sets' ratio is
// what tracing costs.
func (r *run) layerOps() error {
	const reps = 3
	seconds := []string{"core.diameter_s", "core.kcenter_s", "core.oracle_build_s", "core.oracle_build_1p_s"}
	var overhead []float64
	before := r.refBlock()
	for i, o := range r.offlineOps()[:len(seconds)] {
		// Level 0 only, so that every repetition does identical work.
		fn := o.fn
		o.fn = func(int) error { return fn(0) }
		plain := *o
		for k := 0; k < reps; k++ {
			var err error
			tr := r.tr
			r.tr = nil
			before, err = r.pair(&plain, before)
			r.tr = tr
			if err != nil {
				return err
			}
			if before, err = r.pair(o, before); err != nil {
				return err
			}
		}
		r.metrics[seconds[i]] = median(o.seconds)
		if o.metric == "oracle_build_x_bfs" {
			r.buildRatio = median(o.ratios)
		}
		overhead = append(overhead, median(o.ratios)/median(plain.ratios))
	}
	m := r.metrics
	m["core.oracle_scaling"] = m["core.oracle_build_1p_s"] / m["core.oracle_build_s"]
	m["bench.trace_overhead"] = median(overhead)
	logf("trace overhead per operation %.3f, median %.3f", overhead, median(overhead))
	return nil
}

// layerBuild stages the oracle build the way core.BuildOracle runs it —
// growth, weighted quotient, APSP fan-out — and keeps the pieces the later
// sections need.
func (r *run) layerBuild() error {
	g := r.in.g
	tau := r.oracleTau()
	opt := core.Options{Seed: r.in.orSeeds[0], Workers: runtime.NumCPU()}
	refBefore := r.refBlock()

	var cl *core.Clustering
	clusterS, err := r.sample("core.ClusterContext", func() (err error) {
		cl, err = core.ClusterContext(r.ctx, g, tau, opt)
		return err
	})
	if err != nil {
		return err
	}
	opt1 := opt
	opt1.Workers = 1
	cluster1S, err := r.sample("core.ClusterContext.1p", func() error {
		_, err := core.ClusterContext(r.ctx, g, tau, opt1)
		return err
	})
	if err != nil {
		return err
	}
	k := cl.NumClusters()
	var wq *graph.Weighted
	bwS, err := r.sample("quotient.BuildWeighted", func() (err error) {
		_, wq, err = quotient.BuildWeighted(g, cl.Owner, cl.Dist, k)
		return err
	})
	if err != nil {
		return err
	}
	bS, err := r.sample("quotient.Build", func() error {
		_, err := quotient.Build(g, cl.Owner, k)
		return err
	})
	if err != nil {
		return err
	}
	ofcS, err := r.sample("core.OracleFromClustering", func() (err error) {
		r.built, err = core.OracleFromClustering(r.ctx, cl, opt)
		return err
	})
	if err != nil {
		return err
	}
	refAfter := r.refBlock()
	r.quotient = wq

	m := r.metrics
	m["core.cluster_s"], m["core.cluster_1p_s"] = clusterS, cluster1S
	m["core.cluster_rounds"] = float64(cl.Stats.Rounds)
	m["core.cluster_pull_rounds"] = float64(cl.Stats.PullRounds)
	m["core.cluster_arcs"] = float64(cl.Stats.Messages)
	m["core.cluster_max_frontier"] = float64(cl.Stats.MaxFrontier)
	m["core.clusters"] = float64(k)
	m["core.rmax"] = float64(cl.MaxRadius())
	m["quotient.build_weighted_s"], m["quotient.build_s"] = bwS, bS
	m["quotient.nodes"], m["quotient.edges"] = float64(wq.NumNodes()), float64(wq.NumEdges())
	m["core.oracle_from_clustering_s"] = ofcS
	m["core.apsp_self_s"] = max(0, ofcS-bwS)
	ap := r.built.APSPStats()
	m["core.apsp_rounds"], m["core.apsp_buckets"], m["core.apsp_relaxations"] = float64(ap.Rounds), float64(ap.Buckets), float64(ap.Relaxations)
	m["core.oracle_table_mb"] = float64(len(r.built.APSPFlat())+len(r.built.HopsFlat())) * 8 / (1 << 20)

	// The staged calls must add up to the one-shot build.
	staged := (clusterS + ofcS) / ((refBefore + refAfter) / 2)
	oneShot := r.buildRatio
	logf("reconcile: staged growth+tables %.1f x_bfs, one-shot BuildOracle %.1f x_bfs (%+.1f%%); growth %.0f%%, quotient %.0f%%, APSP %.0f%% of the staged build",
		staged, oneShot, 100*(staged/oneShot-1), 100*clusterS/(clusterS+ofcS), 100*bwS/(clusterS+ofcS), 100*(ofcS-bwS)/(clusterS+ofcS))

	m["graph.ifub_weighted_s"], err = r.sample("graph.ExactDiameterWeighted", func() error {
		if _, exact := wq.ExactDiameterWeighted(0); !exact {
			return fmt.Errorf("unbounded weighted iFUB reported an inexact diameter")
		}
		return nil
	})
	if err != nil {
		return err
	}
	m["graph.load_edgelist_s"], err = r.sample("graph.LoadEdgeList", func() error {
		_, err := graph.LoadEdgeList(r.edgeList())
		return err
	})
	return err
}

// layerKCenter splits core.KCenter, as layerOps ran it at level 0, into
// its decomposition, the merge it does itself and the final radius
// evaluation.
func (r *run) layerKCenter() error {
	g := r.in.g
	res := r.kcenter[0]
	opt := core.Options{Seed: algSeed(r.seed, 0), Workers: runtime.NumCPU()}
	growS, err := r.sample("core.ClusterContext.kcenter", func() error {
		_, err := core.ClusterContext(r.ctx, g, kcenterTau(r.w.kcenterK, g.NumNodes()), opt)
		return err
	})
	if err != nil {
		return err
	}
	evalS, err := r.sample("core.EvalCenters", func() error {
		radius, err := core.EvalCenters(g, res.centers)
		if err == nil && radius != res.radius {
			err = fmt.Errorf("EvalCenters says %d, KCenter said %d", radius, res.radius)
		}
		return err
	})
	if err != nil {
		return err
	}
	r.metrics["core.eval_centers_s"] = evalS
	r.metrics["core.kcenter_merge_self_s"] = max(0, r.metrics["core.kcenter_s"]-growS-evalS)
	r.metrics["graph.multisource_bfs_s"], err = r.sample("graph.MultiSourceBFS", func() error {
		g.MultiSourceBFS(res.centers)
		return nil
	})
	return err
}

// layerEngines measures the two traversal engines on their own: a BFS of
// the workload graph on bsp.Engine through pbfs.Run, and single-source
// shortest paths from 64 quotient nodes on bsp.WeightedEngine, the search
// the oracle's APSP fans out.
func (r *run) layerEngines() error {
	var res *pbfs.Result
	bfsS, err := r.sample("pbfs.Run", func() (err error) {
		res, err = pbfs.Run(r.in.g, 0, runtime.NumCPU())
		return err
	})
	if err != nil {
		return err
	}
	bfs1S, err := r.sample("pbfs.Run.1p", func() error {
		_, err := pbfs.Run(r.in.g, 0, 1)
		return err
	})
	if err != nil {
		return err
	}
	m := r.metrics
	m["bsp.bfs_s"], m["bsp.bfs_1p_s"] = bfsS, bfs1S
	m["bsp.bfs_rounds"] = float64(res.Stats.Rounds)
	m["bsp.bfs_pull_rounds"] = float64(res.Stats.PullRounds)
	m["bsp.bfs_arcs"] = float64(res.Stats.Messages)
	m["bsp.us_per_round"] = 1e6 * bfsS / float64(res.Stats.Rounds)
	m["bsp.arcs_per_s"] = float64(res.Stats.Messages) / bfsS

	wq := r.quotient
	sources := min(64, wq.NumNodes())
	dist := make([]int64, wq.NumNodes())
	var st bsp.Stats
	ssspS, err := r.sample("bsp.WeightedEngine.SSSP", func() error {
		e := bsp.NewWeightedEngine(wq, 1, 0)
		defer e.Close()
		for s := 0; s < sources; s++ {
			e.SSSP(graph.NodeID(s), dist)
		}
		st = e.Stats()
		return e.Err()
	})
	if err != nil {
		return err
	}
	m["bsp.sssp_s"] = ssspS
	m["bsp.sssp_buckets"], m["bsp.sssp_rounds"], m["bsp.sssp_relaxations"] = float64(st.Buckets), float64(st.Rounds), float64(st.Relaxations)
	m["bsp.us_per_bucket"] = 1e6 * ssspS / float64(st.Buckets)
	m["bsp.ns_per_relaxation"] = 1e9 * ssspS / float64(st.Relaxations)
	return nil
}

// mallocs is the process's cumulative count of heap allocations.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// layerQuery times the oracle's two query kernels on the seeded pairs.
func (r *run) layerQuery() error {
	o := r.built
	qS, err := r.sample("core.Oracle.Query", func() error {
		for _, p := range r.in.pairs {
			querySink += o.Query(p[0], p[1])
		}
		return nil
	})
	if err != nil {
		return err
	}
	out := make([]int64, framePairs)
	bS, err := r.sample("core.Oracle.QueryBatchInto", func() error {
		for _, prs := range r.in.framePrs {
			o.QueryBatchInto(prs, out)
		}
		return nil
	})
	if err != nil {
		return err
	}
	// Allocations are counted over a loop of its own: the process-wide
	// counter would also see the spans sample records.
	before := mallocs()
	for _, prs := range r.in.framePrs {
		o.QueryBatchInto(prs, out)
	}
	r.metrics["core.query_batch_allocs"] = float64(mallocs()-before) / batchFrames
	r.metrics["core.query_ns"] = 1e9 * qS / float64(len(r.in.pairs))
	r.metrics["core.query_batch_ns_per_pair"] = 1e9 * bS / float64(batchFrames*framePairs)
	return nil
}

// querySink receives the timed Query loop's results so that the compiler
// cannot drop the calls.
var querySink int64

// layerMR runs the MR layer's two halves on the side graph: MR-native
// cluster growth (Engine.Cluster) and the repeated squaring of the pinned
// quotient, the part the end-to-end MR metrics time.
func (r *run) layerMR() error {
	side := r.in.side
	var growRounds int
	var growPairs int64
	growS, err := r.sample("mr.Engine.Cluster", func() error {
		eng := mr.NewEngine(mr.Config{})
		defer eng.Close()
		eng.SetContext(r.ctx)
		_, _, err := eng.Cluster(side, r.w.mrTau, r.in.mrSeeds[0])
		growRounds, growPairs = eng.Rounds(), eng.TotalShuffled()
		return err
	})
	if err != nil {
		return err
	}
	cl, err := core.ClusterContext(r.ctx, side, r.w.mrTau, core.Options{Seed: r.in.mrSeeds[0], Workers: runtime.NumCPU()})
	if err != nil {
		return err
	}
	_, wq, err := quotient.BuildWeighted(side, cl.Owner, cl.Dist, cl.NumClusters())
	if err != nil {
		return err
	}
	var stats []mr.RoundStat
	var maxIn int
	sqS, err := r.sample("mr.Engine.DiameterByRepeatedSquaring", func() error {
		eng := mr.NewEngine(mr.Config{})
		defer eng.Close()
		eng.SetContext(r.ctx)
		d, err := eng.DiameterByRepeatedSquaring(wq)
		r.mrOut[0] = mrOut{wq: wq, diameter: d, shuffled: eng.TotalShuffled()}
		stats, maxIn = eng.RoundStats(), eng.MaxReducerInput()
		return err
	})
	if err != nil {
		return err
	}
	var in, out int64
	for _, s := range stats {
		in += s.PairsIn
		out += s.PairsOut
	}
	m := r.metrics
	m["mr.cluster_s"], m["mr.grow_rounds"], m["mr.grow_pairs_shuffled"] = growS, float64(growRounds), float64(growPairs)
	m["mr.squaring_s"], m["mr.squaring_rounds"] = sqS, float64(len(stats))
	m["mr.squaring_pairs_shuffled"] = float64(r.mrOut[0].shuffled)
	m["mr.max_reducer_input"] = float64(maxIn)
	m["mr.pairs_per_s"] = float64(r.mrOut[0].shuffled) / sqS
	m["mr.useful_pair_ratio"] = float64(out) / float64(in)
	m["mr.quotient_nodes"] = float64(wq.NumNodes())
	return nil
}

// layerSnapshotAndHandler writes and reads the snapshot of the staged
// oracle, restarts a daemon from it three times, and drives the serving
// handler in-process, without a socket, from the loaded artifact.
func (r *run) layerSnapshotAndHandler() error {
	art := &snapshot.Artifact{
		Meta:   snapshot.Meta{GraphName: graphName, Tau: r.oracleTau(), Seed: r.in.orSeeds[0], Algorithm: "cluster"},
		Graph:  r.in.g,
		Oracle: r.built,
	}
	path := filepath.Join(r.dir, "oracle.snap")
	var err error
	if r.metrics["snapshot.write_s"], err = r.sample("snapshot.Save", func() error { return snapshot.Save(path, art) }); err != nil {
		return err
	}
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	r.metrics["snapshot.bytes"] = float64(fi.Size())
	var loaded *snapshot.Artifact
	if r.metrics["snapshot.read_s"], err = r.sample("snapshot.Load", func() (err error) {
		loaded, err = snapshot.Load(path)
		return err
	}); err != nil {
		return err
	}

	// Warm restart: the time from launching reprod on the snapshot to its
	// first answer, which must be the staged oracle's own.
	p := r.in.pairs[0]
	want := r.built.Query(p[0], p[1])
	var restarts []float64
	for i := 0; i < 3; i++ {
		var d *proc
		secs := r.timed("snapshot.restart", i, func() {
			if d, err = r.startDaemon(fmt.Sprintf("restart%d", i), "-snapshot", path); err != nil {
				return
			}
			if err = d.waitHealthy(120 * time.Second); err != nil {
				return
			}
			var got int64
			got, err = pointAnswer(d.addr, p)
			if err == nil && got != want {
				err = fmt.Errorf("restarted daemon answers %d for %v, the snapshotted oracle %d", got, p, want)
			}
		})
		d.stop()
		if !r.check(err == nil, "snapshot restart: %v", err) {
			return err
		}
		restarts = append(restarts, secs)
	}
	sort.Float64s(restarts)
	r.metrics["snapshot.restart_s"] = restarts[0]

	s := serve.New(serve.Config{DefaultTau: art.Meta.Tau, DefaultSeed: art.Meta.Seed})
	defer func() {
		if err := s.Shutdown(r.ctx); err != nil {
			logf("in-process server shutdown: %v", err)
		}
	}()
	if err := s.InstallSnapshot(loaded); err != nil {
		return err
	}
	h := s.Handler()
	w := &sinkWriter{header: http.Header{}}
	drive := func(span string, reqs []*http.Request, rearm func(i int)) (secsPer, allocsPer float64, err error) {
		once := func() error {
			for i, req := range reqs {
				rearm(i)
				w.reset()
				h.ServeHTTP(w, req)
				if w.status != http.StatusOK {
					return fmt.Errorf("status %d", w.status)
				}
			}
			return nil
		}
		secs, err := r.sample(span, once)
		if err != nil {
			return 0, 0, err
		}
		before := mallocs()
		err = once()
		return secs / float64(len(reqs)), float64(mallocs()-before) / float64(len(reqs)), err
	}
	points := make([]*http.Request, 4096)
	for i := range points {
		p := r.in.pairs[i]
		points[i] = httptest.NewRequest(http.MethodGet, fmt.Sprintf("/distance?graph=%s&u=%d&v=%d", graphName, p[0], p[1]), nil)
	}
	pointS, pointAllocs, err := drive("serve.Handler.point", points, func(int) {})
	if err != nil {
		return err
	}
	bodies := make([]bytes.Reader, 256)
	batches := make([]*http.Request, len(bodies))
	for i := range batches {
		batches[i] = httptest.NewRequest(http.MethodPost, "/distance-batch?graph="+graphName, nil)
		batches[i].Header.Set("Content-Type", ctPairsBinary)
		batches[i].ContentLength = int64(len(r.in.frames[0]))
		batches[i].Body = io.NopCloser(&bodies[i])
	}
	batchS, _, err := drive("serve.Handler.batch", batches, func(i int) { bodies[i].Reset(r.in.frames[i%batchFrames]) })
	if err != nil {
		return err
	}
	r.metrics["serve.handler_point_us"], r.metrics["serve.handler_point_allocs"] = 1e6*pointS, pointAllocs
	r.metrics["serve.handler_batch_us"] = 1e6 * batchS
	return nil
}

// sinkWriter is the recorder the in-process handler writes to: it keeps
// the status and drops the body, and is reused so that the allocations
// counted are the handler's own.
type sinkWriter struct {
	header http.Header
	status int
}

func (w *sinkWriter) Header() http.Header { return w.header }

func (w *sinkWriter) WriteHeader(status int) {
	if w.status == 0 {
		w.status = status
	}
}

func (w *sinkWriter) Write(b []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	return len(b), nil
}

func (w *sinkWriter) reset() {
	clear(w.header)
	w.status = 0
}

// pointAnswer asks a daemon for one distance over a fresh connection.
func pointAnswer(addr string, p [2]int32) (int64, error) {
	c, err := dial(addr)
	if err != nil {
		return 0, err
	}
	defer c.close()
	status, body, err := c.do(pointRequest(p[0], p[1]))
	if err != nil {
		return 0, err
	}
	if status != http.StatusOK {
		return 0, fmt.Errorf("status %d: %s", status, body)
	}
	var ans struct {
		Distance int64 `json:"distance"`
	}
	if err := json.Unmarshal(body, &ans); err != nil {
		return 0, err
	}
	return ans.Distance, nil
}

// scrape fetches /metrics and returns the sum of every sample of each
// family, the number of families, and how long the scrape took.
func scrape(addr string) (sums map[string]float64, families int, secs float64, err error) {
	t := time.Now()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		return nil, 0, 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	secs = time.Since(t).Seconds()
	if err != nil {
		return nil, 0, 0, err
	}
	sums = map[string]float64{}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			families++
		}
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		if v, err := strconv.ParseFloat(line[sp+1:], 64); err == nil {
			sums[name] += v
		}
	}
	return sums, families, secs, nil
}

// layerLive measures the live daemon and the echo server each on their
// own: closed loops of NumCPU connections for point queries, one
// connection for batches, and the daemon's own counters around them.
func (r *run) layerLive() error {
	before, _, _, err := scrape(r.daemon.addr)
	if err != nil {
		return err
	}
	r.scrapeBefore = before

	const perConn = 8192
	alone := func(span string, t *target, reqs [][]byte, perConn int) (slice, float64, error) {
		var s slice
		var err error
		secs := r.timed(span, 0, func() { s, err = closedLoop(t, reqs, perConn, true) })
		r.attempted += s.requests
		r.failed += s.failed
		return s, secs, err
	}
	d, dSecs, err := alone("serve.point.alone", r.daemonT, r.pointReqs, perConn)
	if err != nil {
		return err
	}
	e, eSecs, err := alone("ref.echo.alone", r.echoT, r.pointReqs, perConn)
	if err != nil {
		return err
	}
	b, bSecs, err := alone("serve.batch.alone", r.daemonBatchT, r.batchReqs, 1024)
	if err != nil {
		return err
	}
	m := r.metrics
	m["serve.point_rps"] = float64(d.requests) / dSecs
	m["serve.point_p50_us"], m["serve.point_p99_us"] = 1e6*percentile(d.lat, .50), 1e6*percentile(d.lat, .99)
	m["serve.point_cpu_us"] = 1e6 * d.cpuPerRequest()
	m["ref.echo_rps"] = float64(e.requests) / eSecs
	m["ref.echo_cpu_us"] = 1e6 * e.cpuPerRequest()
	m["serve.batch_pairs_per_s"] = float64(b.requests*framePairs) / bSecs
	m["serve.batch_cpu_us"] = 1e6 * b.cpuPerRequest()
	return nil
}

// openLoop sends reqs to t at rate requests per second for dur, split
// evenly over the connections, each request due at a fixed time whatever
// happened to the ones before it. Latency counts from the due time, so a
// stall is charged to every request it delays; late is how far behind its
// schedule the generator itself was when it sent.
func openLoop(t *target, reqs [][]byte, rate float64, dur time.Duration) (lat, late []float64, failed int) {
	n := len(t.conns)
	gap := time.Duration(float64(time.Second) * float64(n) / rate)
	perConn := int(dur / gap)
	lats, lates, fails := make([][]float64, n), make([][]float64, n), make([]int, n)
	var wg sync.WaitGroup
	start := time.Now().Add(10 * time.Millisecond)
	for i, c := range t.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			first := start.Add(time.Duration(i) * gap / time.Duration(n))
			for k := 0; k < perConn; k++ {
				due := first.Add(time.Duration(k) * gap)
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				sent := time.Now()
				status, _, err := c.do(reqs[(t.cursor+i+k*n)%len(reqs)])
				if err != nil || status != http.StatusOK {
					fails[i]++
					return
				}
				lats[i] = append(lats[i], time.Since(due).Seconds())
				lates[i] = append(lates[i], sent.Sub(due).Seconds())
			}
		}()
	}
	wg.Wait()
	for i := range lats {
		lat = append(lat, lats[i]...)
		late = append(late, lates[i]...)
		failed += fails[i]
	}
	t.cursor = (t.cursor + len(lat)) % len(reqs)
	return lat, late, failed
}

// layerOpenLoop offers point queries at three fixed rates.
func (r *run) layerOpenLoop() error {
	var late []float64
	best := 0.0
	for _, rate := range []struct {
		name string
		rps  float64
	}{{"2k", 2000}, {"4k", 4000}, {"8k", 8000}} {
		id := r.tr.begin("serve.open."+rate.name, 0)
		lat, l, failed := openLoop(r.daemonT, r.pointReqs, rate.rps, 1500*time.Millisecond)
		r.tr.end(id)
		r.attempted += len(lat) + failed
		r.failed += failed
		if len(lat) == 0 {
			return fmt.Errorf("open loop at %s: no request completed", rate.name)
		}
		p50, p99 := percentile(lat, .50), percentile(lat, .99)
		r.metrics["serve.open_"+rate.name+"_p50_us"], r.metrics["serve.open_"+rate.name+"_p99_us"] = 1e6*p50, 1e6*p99
		if p99 < 5e-3 {
			best = rate.rps
		}
		late = append(late, l...)
	}
	r.metrics["serve.open_gen_late_p99_us"] = 1e6 * percentile(late, .99)
	r.metrics["serve.open_max_rate_p99_under_5ms"] = best
	return nil
}

// layerUnderBuild measures reads beside writes: point queries interleaved
// with the echo server, as in the untraced run, while one more connection
// forces cold oracle builds back to back by asking under fresh seeds.
func (r *run) layerUnderBuild() error {
	builder, err := dial(r.daemon.addr)
	if err != nil {
		return err
	}
	defer builder.close()
	ctx, cancel := context.WithCancel(r.ctx)
	builds, buildFails := 0, 0
	done := make(chan struct{})
	go func() {
		defer close(done)
		p := r.in.pairs[0]
		for i := 0; ctx.Err() == nil; i++ {
			req := fmt.Sprintf("GET /distance?graph=%s&u=%d&v=%d&seed=%d HTTP/1.1\r\nHost: bench\r\n\r\n",
				graphName, p[0], p[1], algSeed(r.seed, 500+i))
			status, _, err := builder.do([]byte(req))
			if err != nil || status != http.StatusOK {
				buildFails++
				return
			}
			builds++
		}
	}()
	under := &sides{}
	for start := time.Now(); err == nil && time.Since(start) < 3*time.Second; {
		err = r.slicePair("serve.point.under_build", r.daemonT, r.echoT, r.pointReqs, pointBurst, under)
	}
	cancel()
	<-done
	if err != nil {
		return err
	}
	r.attempted += builds + buildFails
	r.failed += buildFails
	r.metrics["serve.hot_x_echo_under_build"] = median(under.wall)
	r.metrics["serve.builds_under_load"] = float64(builds)
	return nil
}

// layerCold starts a lazy daemon and times its first answer, which pays
// for the oracle build, then reads the serving counters.
func (r *run) layerCold() error {
	var d *proc
	var err error
	p := r.in.pairs[0]
	secs := r.timed("serve.cold_answer", 0, func() {
		if d, err = r.startDaemon("lazy", "-graph", r.edgeList(), "-lazy"); err != nil {
			return
		}
		if err = d.waitHealthy(120 * time.Second); err != nil {
			return
		}
		_, err = pointAnswer(d.addr, p)
	})
	d.stop()
	if !r.check(err == nil, "cold daemon: %v", err) {
		return err
	}
	// The lazy daemon's start includes loading the edge list; what the
	// first query adds on top of a bare build is the overhead.
	r.metrics["serve.cold_answer_s"] = secs
	r.metrics["serve.cold_overhead_s"] = secs - r.metrics["core.oracle_build_s"]

	after, families, scrapeS, err := scrape(r.daemon.addr)
	if err != nil {
		return err
	}
	delta := func(name string) float64 { return after[name] - r.scrapeBefore[name] }
	m := r.metrics
	m["serve.requests_total"] = delta("reprod_http_requests_total")
	m["serve.shed_total"] = delta("reprod_requests_shed_total")
	m["serve.errors_total"] = delta("reprod_http_errors_total")
	m["serve.cache_hits"] = delta("reprod_artifact_cache_hits_total")
	m["serve.cache_misses"] = delta("reprod_artifact_cache_misses_total")
	m["obs.scrape_ms"], m["obs.families"] = 1e3*scrapeS, float64(families)
	return nil
}
