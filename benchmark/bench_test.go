package main

import (
	"context"
	"encoding/json"
	"hash/fnv"
	"io"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/serve"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

// A host that runs at half speed for part of the run slows the operation
// and both neighbouring reference blocks alike, so no ratio moves.
func TestPairedRatioCancelsHostSlowdown(t *testing.T) {
	const opS, refS = 0.2, 0.01
	measure := func(slow func(i int) float64) *op {
		o := &op{levels: 2}
		for i := 0; i < 12; i++ {
			level := 1 + float64(i%2) // level 1 does twice the work of level 0
			f := slow(i)
			o.ratios = append(o.ratios, pairRatio(opS*level*f, refS*f, refS*f))
		}
		return o
	}
	steady := measure(func(int) float64 { return 1 })
	drifting := measure(func(i int) float64 {
		if i >= 4 && i < 9 {
			return 2
		}
		return 1
	})
	if !near(steady.value(), 30) { // mean of 20 and 40 sweeps
		t.Fatalf("steady value %v, want 30", steady.value())
	}
	if !near(drifting.value(), steady.value()) {
		t.Fatalf("a 2x slowdown of both sides moved the ratio: %v vs %v", drifting.value(), steady.value())
	}
	// One repetition disturbed on the operation's side only is shed by its
	// level's median.
	steady.ratios[2] *= 5
	if !near(steady.value(), 30) {
		t.Fatalf("one disturbed repetition moved the value to %v", steady.value())
	}
	// The block after a call is the block before the next: the ratio uses
	// the mean of the two.
	if got := pairRatio(0.3, 0.01, 0.02); !near(got, 20) {
		t.Fatalf("pairRatio = %v, want 20", got)
	}
}

// With a repetition per level a stalled call has no median to be shed by;
// the trimmed mean over levels sheds it, and the heaviest and lightest
// levels with it.
func TestValueTrimsLevels(t *testing.T) {
	o := &op{levels: 16}
	for i := 0; i < 16; i++ {
		o.ratios = append(o.ratios, 10+float64(i)) // levels 10..25, mean 17.5
	}
	if !near(o.value(), 17.5) {
		t.Fatalf("value %v, want 17.5", o.value())
	}
	o.ratios[7] *= 5 // a stall: the level reads 85, beyond every other
	if want := (17.5*16 - 10 - 11 - 17 - 25) / 12; !near(o.value(), want) {
		t.Fatalf("one stalled level moved the value to %v, want %v", o.value(), want)
	}
	if got := trimmedMean([]float64{4, 1, 100, 3}, levelTrim); !near(got, 27) {
		t.Fatalf("four values are too few to trim: got %v, want their mean 27", got)
	}
}

func TestSliceBookkeeping(t *testing.T) {
	var s sides
	// Daemon: 100 requests in 0.02 s of summed wall and 0.01 s of CPU; the
	// echo server: 100 in 0.01 and 0.004.
	s.addPair(slice{requests: 100, wallSum: 0.02, cpu: 0.01}, slice{requests: 100, wallSum: 0.01, cpu: 0.004})
	// A pair measured while the host ran at half speed: same ratios.
	s.addPair(slice{requests: 50, wallSum: 0.02, cpu: 0.01}, slice{requests: 50, wallSum: 0.01, cpu: 0.004})
	s.addPair(slice{requests: 100, wallSum: 0.03, cpu: 0.012}, slice{requests: 100, wallSum: 0.01, cpu: 0.004})
	if !near(median(s.wall), 2) || !near(median(s.cpu), 2.5) {
		t.Fatalf("medians %v %v, want 2 and 2.5", median(s.wall), median(s.cpu))
	}
	if s.daemon.requests != 250 || !near(s.daemon.wallSum, 0.07) || !near(s.echo.cpu, 0.012) {
		t.Fatalf("totals %+v %+v", s.daemon, s.echo)
	}
	if got := (slice{requests: 4, wallSum: 2, cpu: 1}); !near(got.perRequest(), 0.5) || !near(got.cpuPerRequest(), 0.25) {
		t.Fatalf("per-request %v %v", got.perRequest(), got.cpuPerRequest())
	}
}

func TestSelfSeconds(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{name: "root", start: ms(0), end: ms(100), parent: -1},
		{name: "a", start: ms(10), end: ms(40), parent: 0},  // sibling
		{name: "b", start: ms(50), end: ms(90), parent: 0},  // sibling
		{name: "b1", start: ms(55), end: ms(65), parent: 2}, // nested
		{name: "b2", start: ms(60), end: ms(80), parent: 2}, // overlaps b1: the union counts once
		{name: "leaf", start: ms(95), end: ms(95), parent: 0},
	}
	want := []float64{0.030, 0.030, 0.015, 0.010, 0.020, 0}
	for i, got := range selfSeconds(spans) {
		if !near(got, want[i]) {
			t.Errorf("self time of %s = %v, want %v", spans[i].name, got, want[i])
		}
	}
}

func TestTracerNestingAndChromeFile(t *testing.T) {
	var none *tracer
	none.end(none.begin("ignored", 0)) // a nil tracer records nothing and does not panic

	tr := newTracer("w")
	outer := tr.begin("core.outer", 0)
	inner := tr.begin("graph.inner", 3)
	tr.end(inner)
	sibling := tr.begin("graph.inner", 4)
	tr.end(outer) // closes the sibling left open, too
	if len(tr.open) != 0 || tr.spans[inner].parent != outer || tr.spans[sibling].parent != outer || tr.spans[outer].parent != -1 {
		t.Fatalf("bad nesting: %+v open %v", tr.spans, tr.open)
	}
	if tr.spans[sibling].end != tr.spans[outer].end {
		t.Fatalf("span left open was not closed with its parent")
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := tr.writeChrome(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name, Cat, Ph string
			Args          map[string]any
		}
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 3 || doc.TraceEvents[1].Cat != "graph" || doc.TraceEvents[1].Ph != "X" ||
		doc.TraceEvents[1].Args["workload"] != "w" || doc.TraceEvents[1].Args["iteration"] != float64(3) {
		t.Fatalf("unexpected trace file: %s", b)
	}
}

func TestProcParsing(t *testing.T) {
	// The command field may hold spaces and parentheses.
	stat := "4242 (re prod) x) S 1 4242 4242 0 -1 4194560 1432 0 0 0 731 269 0 0 20 0 9 0 1234567 1288503296 6540 18446744073709551615 1 1 0 0 0 0 0 0 2143420159 0 0 0 17 1 0 0 0 0 0"
	if ticks, err := parseStatTicks(stat); err != nil || ticks != 1000 {
		t.Fatalf("parseStatTicks = %d, %v; want 1000", ticks, err)
	}
	for _, bad := range []string{"", "1 (x", "1 (x) S 1 2"} {
		if _, err := parseStatTicks(bad); err == nil {
			t.Errorf("parseStatTicks(%q) accepted", bad)
		}
	}
	if ns, err := parseSchedstat("528633 100477 12\n"); err != nil || ns != 528633 {
		t.Fatalf("parseSchedstat = %d, %v", ns, err)
	}
	if _, err := parseSchedstat(" \n"); err == nil {
		t.Error("parseSchedstat accepted an empty line")
	}
	if mb, err := parseVmHWM("Name:\tx\nVmPeak:\t  999 kB\nVmHWM:\t  20480 kB\nVmRSS:\t 100 kB\n"); err != nil || mb != 20 {
		t.Fatalf("parseVmHWM = %v, %v; want 20", mb, err)
	}
	if _, err := parseVmHWM("Name:\tx\n"); err == nil {
		t.Error("parseVmHWM accepted a status without VmHWM")
	}
}

// The benchmark's own process must be readable by the same code.
func TestProcSelf(t *testing.T) {
	b, err := os.ReadFile("/proc/self/stat")
	if err != nil {
		t.Skip("no /proc")
	}
	if _, err := parseStatTicks(string(b)); err != nil {
		t.Fatal(err)
	}
	b, err = os.ReadFile("/proc/self/status")
	if err != nil {
		t.Fatal(err)
	}
	if mb, err := parseVmHWM(string(b)); err != nil || mb <= 0 {
		t.Fatalf("parseVmHWM(self) = %v, %v", mb, err)
	}
}

// target over an httptest server; it has no process to charge CPU to, so
// these tests only use conn.do.
func dialTest(t *testing.T, srv *httptest.Server) *conn {
	t.Helper()
	c, err := dial(strings.TrimPrefix(srv.URL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.close)
	return c
}

// The echo reference must answer with as many bytes as the daemon does
// for the same requests.
func TestEchoMatchesDaemonResponseSizes(t *testing.T) {
	g := graph.Mesh(20, 20)
	s := serve.New(serve.Config{DefaultTau: 2, DefaultSeed: 1})
	defer s.Shutdown(context.Background())
	if err := s.RegisterGraph(graphName, g); err != nil {
		t.Fatal(err)
	}
	daemon := httptest.NewServer(s.Handler())
	defer daemon.Close()
	dc := dialTest(t, daemon)

	status, body, err := dc.do(pointRequest(17, 399))
	if err != nil || status != 200 {
		t.Fatalf("daemon point: %d %v", status, err)
	}
	pointLen := len(body)
	var ans struct {
		Distance int64 `json:"distance"`
	}
	if err := json.Unmarshal(body, &ans); err != nil || ans.Distance <= 0 {
		t.Fatalf("daemon point body %q: %v", body, err)
	}

	echo := httptest.NewServer(echoHandler(pointLen))
	defer echo.Close()
	ec := dialTest(t, echo)
	status, body, err = ec.do(pointRequest(17, 399))
	if err != nil || status != 200 || len(body) != pointLen {
		t.Fatalf("echo point: status %d, %d bytes (daemon %d), %v", status, len(body), pointLen, err)
	}

	pairs := make([][2]int32, 300)
	for i := range pairs {
		pairs[i] = [2]int32{int32(i), int32(399 - i)}
	}
	req := batchRequest(ctPairsBinary, encodePairsFrame(pairs))
	status, body, err = dc.do(req)
	if err != nil || status != 200 {
		t.Fatalf("daemon batch: %d %v", status, err)
	}
	dists, err := decodeDistsFrame(body)
	if err != nil || len(dists) != len(pairs) {
		t.Fatalf("daemon batch answer: %d distances, %v", len(dists), err)
	}
	batchLen := len(body)
	status, body, err = ec.do(req)
	if err != nil || status != 200 || len(body) != batchLen {
		t.Fatalf("echo batch: status %d, %d bytes (daemon %d), %v", status, len(body), batchLen, err)
	}
	// The connection is still usable after a large body, and a second
	// frame of another size is echoed at its own size.
	status, body, err = ec.do(batchRequest(ctPairsBinary, encodePairsFrame(pairs[:5])))
	if err != nil || status != 200 || len(body) != 8+8*5 {
		t.Fatalf("echo second batch: status %d, %d bytes, %v", status, len(body), err)
	}
}

func TestFrameCodec(t *testing.T) {
	f := encodePairsFrame([][2]int32{{1, 2}, {300000, 7}})
	if string(f[:4]) != "RPB1" || len(f) != 24 || f[4] != 2 || f[16] != 0xe0 {
		t.Fatalf("frame % x", f)
	}
	d, err := decodeDistsFrame([]byte("RPD1\x02\x00\x00\x00\x05\x00\x00\x00\x00\x00\x00\x00\xff\xff\xff\xff\xff\xff\xff\xff"))
	if err != nil || len(d) != 2 || d[0] != 5 || d[1] != -1 {
		t.Fatalf("decodeDistsFrame = %v, %v", d, err)
	}
	for _, bad := range []string{"", "RPD1\x01\x00\x00\x00", "RPB1\x00\x00\x00\x00"} {
		if _, err := decodeDistsFrame([]byte(bad)); err == nil {
			t.Errorf("decodeDistsFrame(%q) accepted", bad)
		}
	}
}

func TestRefBFSMatchesGraphBFS(t *testing.T) {
	g := graph.RoadLike(30, 30, 0.4, 7)
	r, err := newRefBFS(g)
	if err != nil {
		t.Fatal(err)
	}
	reached, ecc := r.sweep(5)
	want := g.BFS(5)
	var wantEcc int32
	for u, d := range want {
		if r.dist[u] != d {
			t.Fatalf("dist[%d] = %d, graph.BFS says %d", u, r.dist[u], d)
		}
		wantEcc = max(wantEcc, d)
	}
	if reached != g.NumNodes() || ecc != wantEcc {
		t.Fatalf("reached %d ecc %d, want %d %d", reached, ecc, g.NumNodes(), wantEcc)
	}
	// Several sources: each node's distance is to the nearest.
	a, b := g.BFS(0), g.BFS(899)
	r.sweep(0, 899, 0)
	for u := range a {
		if r.dist[u] != min(a[u], b[u]) {
			t.Fatalf("multi-source dist[%d] = %d, want %d", u, r.dist[u], min(a[u], b[u]))
		}
	}
	if s := r.block(); s <= 0 {
		t.Fatalf("block returned %v", s)
	}
}

func TestGeneratorsArePinned(t *testing.T) {
	// Reference values of splitmix64 seeded with 0.
	s := splitmix64(0)
	for i, want := range []uint64{0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f} {
		if got := s.next(); got != want {
			t.Fatalf("splitmix64 output %d = %#x, want %#x", i, got, want)
		}
	}
	h := fnv1a(fnvOffset)
	h.u64(0x0807060504030201)
	h.byte(9)
	ref := fnv.New64a()
	ref.Write([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9})
	if uint64(h) != ref.Sum64() {
		t.Fatalf("fnv1a = %#x, hash/fnv says %#x", uint64(h), ref.Sum64())
	}
}

// Inputs are a function of (workload, seed) alone. The full-size graphs
// are too slow for a unit test; a scaled-down workload of the same shape
// goes through the same code.
func TestInputsDeterministic(t *testing.T) {
	w := &workload{name: "tiny", mrTau: 1, mrClusters: 20, oracleTau: 2, oracleSeeds: 2, oracleClusters: 60, oracleCandidates: 6}
	mk := func(seed uint64) *inputs {
		in, err := makeInputs(context.Background(), w, seed, graph.RoadLike(40, 40, 0.4, seed), graph.RoadLike(8, 8, 0.4, seed))
		if err != nil {
			t.Fatal(err)
		}
		return in
	}
	a, b, c := mk(1), mk(1), mk(2)
	if a.hash != b.hash || !slices.Equal(a.mrSeeds, b.mrSeeds) || !slices.Equal(a.orSeeds, b.orSeeds) {
		t.Fatalf("same seed, different inputs: %x %x", a.hash, b.hash)
	}
	if a.hash == c.hash {
		t.Fatal("different seeds, same inputs")
	}
	if len(a.pairs) != pointPairs || len(a.frames) != batchFrames || len(a.frames[0]) != 8+8*framePairs ||
		len(a.sources) != sampleSources || len(a.targets) != sampleTargets || len(a.orSeeds) != 2 || len(a.mrSeeds) != mrSeeds {
		t.Fatalf("unexpected input sizes")
	}
	for _, p := range a.pairs {
		if p[0] < 0 || p[1] < 0 || int(p[0]) >= a.g.NumNodes() || int(p[1]) >= a.g.NumNodes() {
			t.Fatalf("pair %v out of range", p)
		}
	}
	// Changing one request changes the fingerprint.
	before := a.fingerprint()
	a.frames[3][100] ^= 1
	if a.fingerprint() == before {
		t.Fatal("fingerprint ignores the batch frames")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	q1, q2, q3 := quartiles(xs)
	if !near(q1, 2.75) || !near(q2, 5.5) || !near(q3, 8.25) {
		t.Fatalf("quartiles = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	q1, q2, q3 = quartiles([]float64{4, 1, 2})
	if !near(q1, 1) || !near(q2, 2) || !near(q3, 4) {
		t.Fatalf("quartiles of three = %v %v %v", q1, q2, q3)
	}
	if !near(spread(xs), (8.25-2.75)/5.5) {
		t.Fatalf("spread = %v", spread(xs))
	}
	if !near(median([]float64{3, 1, 2}), 2) || !near(median([]float64{4, 1, 2, 3}), 2.5) || !math.IsNaN(median(nil)) {
		t.Fatal("median")
	}
	if !near(percentile(xs, .5), 5) || !near(percentile(xs, .99), 10) || !near(percentile(xs, .01), 1) {
		t.Fatal("percentile")
	}
}

func TestCompareSets(t *testing.T) {
	man := &manifest{}
	man.EndToEnd = append(man.EndToEnd, struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}{"m", "x", "lower", 0.10})
	set := func(vals ...float64) []savedRun {
		var out []savedRun
		for i, v := range vals {
			out = append(out, savedRun{Workload: "w", Seed: uint64(i + 1), result: result{Correct: true, Attempted: 1,
				Metrics: map[string]metricValue{"m": {Value: v, Unit: "x"}}}})
		}
		return out
	}
	a := set(10, 10.1, 9.9, 10.05, 9.95)
	if err := compareSets(io.Discard, man, a, set(10.2, 10.4, 10.3, 10.35, 10.25)); err != nil {
		t.Errorf("3%% worse within a 10%% bound was rejected: %v", err)
	}
	if err := compareSets(io.Discard, man, a, set(8, 8.1, 7.9, 8.05, 7.95)); err != nil {
		t.Errorf("an improvement was rejected: %v", err)
	}
	if err := compareSets(io.Discard, man, a, set(11.2, 11.4, 11.3, 11.35, 11.25)); err == nil {
		t.Error("13% worse passed a 10% bound")
	}
	var out strings.Builder
	if err := compareSets(&out, man, a, set(8, 12, 10, 6, 14)); err != nil || !strings.Contains(out.String(), "NOISY") {
		t.Errorf("a spread above the bound must be marked, not failed: %v\n%s", err, out.String())
	}
	bad := set(10, 10, 10, 10, 10)
	bad[2].Correct, bad[2].Failed = false, 3
	if err := compareSets(io.Discard, man, a, bad); err == nil {
		t.Error("an incorrect run passed")
	}
	if w := worsening(10, 9, "higher"); !near(w, 0.1) {
		t.Errorf("worsening higher-is-better = %v", w)
	}

	dir := t.TempDir()
	pa, pb := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")
	if err := writeRuns(pa, a); err != nil {
		t.Fatal(err)
	}
	if err := writeRuns(pb, set(10.2, 10.4, 10.3, 10.35, 10.25)); err != nil {
		t.Fatal(err)
	}
	ra, err := readRuns(pa)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := readRuns(pb)
	if err != nil {
		t.Fatal(err)
	}
	if len(ra) != 5 || ra[4].Seed != 5 || ra[4].Metrics["m"].Value != 9.95 {
		t.Fatalf("result file did not round-trip: %+v", ra)
	}
	if err := compareSets(io.Discard, man, ra, rb); err != nil {
		t.Errorf("saved sets: %v", err)
	}
}

// BENCHMARK.json and the program must name the same workloads and the
// same metrics with the same units.
func TestManifestMatches(t *testing.T) {
	man, err := loadManifest(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(man.Workloads), len(workloads))
	}
	for i, w := range man.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %q vs %q", i, w.Name, workloads[i].name)
		}
	}
	if len(man.EndToEnd) != len(endToEnd) || len(man.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics, the program %d+%d", len(man.EndToEnd), len(man.PerLayer), len(endToEnd), len(perLayer))
	}
	setup := false
	for i, m := range man.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end-to-end %d: %s [%s] vs %s [%s]", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: bound %v, better %q", m.Name, m.Bound, m.Better)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	seen := map[string]bool{}
	for i, m := range man.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per-layer %d: %s [%s] vs %s [%s]", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
		if seen[m.Name] {
			t.Errorf("%s listed twice", m.Name)
		}
		seen[m.Name] = true
	}
}
