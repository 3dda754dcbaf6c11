package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/snapshot"
)

func newTestServer(t *testing.T, name string, g *graph.Graph) (*Server, *httptest.Server) {
	t.Helper()
	s := New(Config{Workers: 8})
	if err := s.RegisterGraph(name, g); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(body, out); err != nil {
			t.Fatalf("unmarshal %q: %v", body, err)
		}
	}
	return resp.StatusCode
}

// The acceptance test: ≥32 parallel clients hammer /distance and every
// answer must equal a direct Oracle.Query call with the same build
// parameters.
func TestDistanceMatchesOracleUnderParallelClients(t *testing.T) {
	g := graph.RoadLike(60, 60, 0.4, 17)
	_, ts := newTestServer(t, "road", g)

	// Reference oracle, built directly with the same (tau, seed, algo) key.
	want, err := core.BuildOracle(context.Background(), g, 3, false, core.Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}

	const clients = 32
	const queriesPerClient = 50
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			r := rng.New(uint64(1000 + id))
			for q := 0; q < queriesPerClient; q++ {
				u := r.Intn(g.NumNodes())
				v := r.Intn(g.NumNodes())
				var resp DistanceResponse
				url := fmt.Sprintf("%s/distance?graph=road&tau=3&seed=7&u=%d&v=%d", ts.URL, u, v)
				code := 0
				{
					res, err := http.Get(url)
					if err != nil {
						errs <- err
						return
					}
					body, _ := io.ReadAll(res.Body)
					res.Body.Close()
					code = res.StatusCode
					if err := json.Unmarshal(body, &resp); err != nil {
						errs <- fmt.Errorf("client %d: %v (%s)", id, err, body)
						return
					}
				}
				if code != http.StatusOK {
					errs <- fmt.Errorf("client %d: status %d", id, code)
					return
				}
				wantD := want.Query(graph.NodeID(u), graph.NodeID(v))
				wantL := want.LowerQuery(graph.NodeID(u), graph.NodeID(v))
				if wantD == graph.InfDist {
					if resp.Reachable {
						errs <- fmt.Errorf("(%d,%d): reachable=true, want unreachable", u, v)
						return
					}
					continue
				}
				if !resp.Reachable || resp.Distance != wantD || resp.Lower != wantL {
					errs <- fmt.Errorf("(%d,%d): got (%d,%d,%v) want (%d,%d,true)",
						u, v, resp.Distance, resp.Lower, resp.Reachable, wantD, wantL)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// All concurrent first requests for one artifact key must share a single
// build (single-flight), and later requests must hit the cache.
func TestSingleFlightBuild(t *testing.T) {
	g := graph.Mesh(80, 80)
	s, ts := newTestServer(t, "mesh", g)

	const clients = 32
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			url := fmt.Sprintf("%s/distance?graph=mesh&tau=2&seed=5&u=%d&v=%d", ts.URL, id, id+100)
			if code := getStatus(t, url); code != http.StatusOK {
				t.Errorf("client %d: status %d", id, code)
			}
		}(c)
	}
	wg.Wait()

	if n := s.met.builds.Value(); n != 1 {
		t.Fatalf("%d builds for one key under %d concurrent clients, want 1", n, clients)
	}
	if hits, misses := s.met.hits.Value(), s.met.misses.Value(); misses != 1 || hits != clients-1 {
		t.Fatalf("hits/misses = %d/%d, want %d/1", hits, misses, clients-1)
	}

	// A different key must trigger its own build.
	if code := getStatus(t, ts.URL+"/distance?graph=mesh&tau=2&seed=6&u=0&v=1"); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if n := s.met.builds.Value(); n != 2 {
		t.Fatalf("builds = %d after second key, want 2", n)
	}
}

func getStatus(t *testing.T, url string) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}

// A snapshot-seeded server must answer identically to the server that
// built the artifact, without running any build.
func TestSnapshotRestartSkipsBuild(t *testing.T) {
	g := graph.RoadLike(50, 50, 0.4, 23)
	s1 := New(Config{Workers: 4})
	if err := s1.RegisterGraph("road", g); err != nil {
		t.Fatal(err)
	}
	art, err := s1.SnapshotArtifact(context.Background(), "road", 3, 9, "cluster")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := snapshot.Write(&buf, art); err != nil {
		t.Fatal(err)
	}

	// "Restart": a fresh server seeded only from the snapshot bytes.
	loaded, err := snapshot.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	s2 := New(Config{Workers: 4})
	if err := s2.InstallSnapshot(loaded); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s2.Handler())
	defer ts.Close()

	r := rng.New(3)
	for i := 0; i < 200; i++ {
		u := r.Intn(g.NumNodes())
		v := r.Intn(g.NumNodes())
		var resp DistanceResponse
		url := fmt.Sprintf("%s/distance?graph=road&tau=3&seed=9&u=%d&v=%d", ts.URL, u, v)
		if code := getJSON(t, url, &resp); code != http.StatusOK {
			t.Fatalf("status %d", code)
		}
		want := art.Oracle.Query(graph.NodeID(u), graph.NodeID(v))
		if want == graph.InfDist {
			if resp.Reachable {
				t.Fatalf("(%d,%d) should be unreachable", u, v)
			}
			continue
		}
		if resp.Distance != want {
			t.Fatalf("(%d,%d) = %d want %d", u, v, resp.Distance, want)
		}
	}
	if n := s2.met.builds.Value(); n != 0 {
		t.Fatalf("snapshot-seeded server ran %d builds, want 0", n)
	}
	if n := s2.met.installs.Value(); n != 1 {
		t.Fatalf("installs = %d, want 1", n)
	}
}

// The daemon's oracle is the in-process oracle, byte for byte: a server
// building on two workers writes the same snapshot as core.BuildOracle on
// one, for both decompositions. The graph's growth frontiers carry far more
// than the 6 k arcs that send a push round to the engine's pool, so the two
// builds claim contended nodes under different schedules.
func TestDaemonSnapshotMatchesInProcessBuild(t *testing.T) {
	ctx := context.Background()
	g, _ := graph.RMAT(14, 8, 3).LargestComponent()
	s := New(Config{Workers: 2, BuildWorkers: 2})
	if err := s.RegisterGraph("rmat", g); err != nil {
		t.Fatal(err)
	}
	for _, algo := range []string{"cluster", "cluster2"} {
		for _, seed := range []uint64{1, 2} {
			art, err := s.SnapshotArtifact(ctx, "rmat", 4, seed, algo)
			if err != nil {
				t.Fatal(err)
			}
			o, err := core.BuildOracle(ctx, g, 4, algo == "cluster2", core.Options{Seed: seed, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			var daemon, direct bytes.Buffer
			if err := snapshot.Write(&daemon, art); err != nil {
				t.Fatal(err)
			}
			if err := snapshot.Write(&direct, &snapshot.Artifact{Meta: art.Meta, Graph: g, Oracle: o}); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(daemon.Bytes(), direct.Bytes()) {
				t.Errorf("%s seed %d: daemon snapshot (%d bytes) differs from the in-process build's (%d bytes)",
					algo, seed, daemon.Len(), direct.Len())
			}
		}
	}
}

func TestClusterOfConsistentWithDistance(t *testing.T) {
	g := graph.Mesh(40, 40)
	s, ts := newTestServer(t, "mesh", g)

	o, err := s.Oracle(context.Background(), "mesh", 2, 1, "")
	if err != nil {
		t.Fatal(err)
	}
	cl := o.Clustering()
	for _, u := range []int{0, 5, 799, 1599} {
		var resp ClusterOfResponse
		url := fmt.Sprintf("%s/cluster-of?graph=mesh&tau=2&seed=1&u=%d", ts.URL, u)
		if code := getJSON(t, url, &resp); code != http.StatusOK {
			t.Fatalf("status %d", code)
		}
		if resp.Cluster != cl.Owner[u] || resp.Center != cl.Centers[resp.Cluster] ||
			resp.DistToCenter != cl.Dist[u] {
			t.Fatalf("u=%d: %+v inconsistent with clustering", u, resp)
		}
	}
}

func TestDiameterEndpointCertifiedBounds(t *testing.T) {
	g := graph.Mesh(50, 50)
	_, ts := newTestServer(t, "mesh", g)
	var resp DiameterResponse
	if code := getJSON(t, ts.URL+"/diameter?graph=mesh&tau=4&seed=2", &resp); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	truth := int64(98) // 49+49 on a 50x50 mesh
	if resp.Lower > truth || resp.Upper < truth {
		t.Fatalf("bounds [%d, %d] do not bracket true diameter %d", resp.Lower, resp.Upper, truth)
	}
}

func TestKCenterEndpoint(t *testing.T) {
	g := graph.RoadLike(40, 40, 0.4, 5)
	_, ts := newTestServer(t, "road", g)
	var resp KCenterResponse
	if code := getJSON(t, ts.URL+"/kcenter?graph=road&k=16&seed=3", &resp); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if len(resp.Centers) == 0 || len(resp.Centers) > 16 {
		t.Fatalf("%d centers, want 1..16", len(resp.Centers))
	}
	// Radius is evaluated exactly server-side; re-check it here.
	radius, err := core.EvalCenters(g, resp.Centers)
	if err != nil {
		t.Fatal(err)
	}
	if radius != resp.Radius {
		t.Fatalf("radius %d, server says %d", radius, resp.Radius)
	}
}

func TestErrorPaths(t *testing.T) {
	g := graph.Mesh(10, 10)
	s, ts := newTestServer(t, "mesh", g)
	cases := []struct {
		url  string
		code int
	}{
		{"/distance?graph=nope&u=0&v=1", http.StatusNotFound},
		{"/distance?graph=mesh&u=0", http.StatusBadRequest},           // missing v
		{"/distance?graph=mesh&u=0&v=100000", http.StatusBadRequest},  // v out of range
		{"/distance?graph=mesh&u=100&v=1", http.StatusBadRequest},     // u out of range (n=100)
		{"/distance?graph=mesh&u=-1&v=1", http.StatusBadRequest},      // negative
		{"/distance?graph=mesh&u=0&v=1&tau=x", http.StatusBadRequest}, // bad tau
		{"/distance?graph=mesh&u=0&v=1&algo=bogus", http.StatusBadRequest},
		{"/distance?u=0&v=1", http.StatusBadRequest},                     // missing graph
		{"/cluster-of?graph=mesh", http.StatusBadRequest},                // missing u
		{"/cluster-of?graph=mesh&u=-7", http.StatusBadRequest},           // negative
		{"/cluster-of?graph=mesh&u=100", http.StatusBadRequest},          // out of range
		{"/cluster-of?graph=mesh&u=999999999999", http.StatusBadRequest}, // int32 overflow
		{"/kcenter?graph=mesh", http.StatusBadRequest},                   // missing k
		{"/kcenter?graph=mesh&k=0", http.StatusBadRequest},
	}
	for _, c := range cases {
		if code := getStatus(t, ts.URL+c.url); code != c.code {
			t.Errorf("%s: status %d want %d", c.url, code, c.code)
		}
	}
	if n := s.met.errors.Value(); n != int64(len(cases)) {
		t.Errorf("errors = %d want %d", n, len(cases))
	}
	// Out-of-range ids must be rejected before the artifact build: garbage
	// requests may not cost (or cache-churn) a decomposition.
	if n := s.met.builds.Value(); n != 0 {
		t.Errorf("malformed requests triggered %d artifact builds, want 0", n)
	}
	// The inside view is /metrics and /builds; there is no /stats.
	if code := getStatus(t, ts.URL+"/stats"); code != http.StatusNotFound {
		t.Errorf("/stats: status %d want 404", code)
	}
	// The rejection must carry a usable message.
	resp, err := http.Get(ts.URL + "/cluster-of?graph=mesh&u=100")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !bytes.Contains(body, []byte("out of range")) {
		t.Errorf("out-of-range error body %q lacks a clear message", body)
	}
}

// Replacing a graph under the same name must drop its cached artifacts so
// queries never answer against stale topology.
func TestRegisterGraphInvalidatesArtifacts(t *testing.T) {
	s := New(Config{Workers: 2})
	if err := s.RegisterGraph("g", graph.Mesh(20, 20)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Oracle(context.Background(), "g", 2, 1, ""); err != nil {
		t.Fatal(err)
	}
	if n := s.cachedEntries(); n != 1 {
		t.Fatalf("artifacts = %d want 1", n)
	}
	if err := s.RegisterGraph("g", graph.Mesh(30, 30)); err != nil {
		t.Fatal(err)
	}
	if n := s.cachedEntries(); n != 0 {
		t.Fatalf("artifacts = %d after re-register, want 0", n)
	}
	o, err := s.Oracle(context.Background(), "g", 2, 1, "")
	if err != nil {
		t.Fatal(err)
	}
	if n := o.Clustering().G.NumNodes(); n != 900 {
		t.Fatalf("oracle over %d nodes, want 900 (new graph)", n)
	}
}

// The graph registry under concurrent writers and readers (run under -race
// in CI): every listing is sorted, duplicate-free and only names graphs
// that resolve; a name being re-registered always resolves to one of its
// versions; and nothing registered is lost.
func TestGraphRegistryConcurrentRegisterListLookup(t *testing.T) {
	s := New(Config{Workers: 2})
	versions := []*graph.Graph{graph.Mesh(3, 3), graph.Mesh(4, 4), graph.Mesh(5, 5)}
	if err := s.RegisterGraph("shared", versions[0]); err != nil {
		t.Fatal(err)
	}
	const writers, perWriter = 4, 25
	var writing, reading sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		writing.Add(1)
		go func() {
			defer writing.Done()
			for i := 0; i < perWriter; i++ {
				if err := s.RegisterGraph(fmt.Sprintf("w%d-%02d", w, i), versions[i%len(versions)]); err != nil {
					t.Error(err)
				}
				if err := s.RegisterGraph("shared", versions[(w+i)%len(versions)]); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	for r := 0; r < 4; r++ {
		reading.Add(1)
		go func() {
			defer reading.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				names := s.GraphNames()
				if !sort.StringsAreSorted(names) {
					t.Errorf("listing not sorted: %v", names)
				}
				for i, name := range names {
					if i > 0 && name == names[i-1] {
						t.Errorf("listing repeats %q", name)
					}
					if _, err := s.Graph(name); err != nil {
						t.Errorf("listed graph does not resolve: %v", err)
					}
				}
				g, err := s.Graph("shared")
				if err != nil || !slices.Contains(versions, g) {
					t.Errorf("shared resolved to %p, %v: not one of its versions", g, err)
				}
			}
		}()
	}
	writing.Wait()
	close(stop)
	reading.Wait()
	if got, want := len(s.GraphNames()), writers*perWriter+1; got != want {
		t.Fatalf("%d graphs registered, want %d", got, want)
	}
}

// The artifact cache must stay bounded under client-minted keys: the
// least-recently-used completed artifact is evicted at the cap.
func TestArtifactCacheBounded(t *testing.T) {
	s := New(Config{Workers: 2, MaxArtifacts: 3})
	if err := s.RegisterGraph("g", graph.Mesh(20, 20)); err != nil {
		t.Fatal(err)
	}
	for seed := uint64(1); seed <= 5; seed++ {
		if _, err := s.Oracle(context.Background(), "g", 2, seed, ""); err != nil {
			t.Fatal(err)
		}
	}
	if n := s.cachedEntries(); n != 3 {
		t.Fatalf("artifacts = %d, want cap 3", n)
	}
	if n := s.met.evictions.Value(); n != 2 {
		t.Fatalf("evictions = %d, want 2", n)
	}
	// The most recent key must still be cached (no build on re-request).
	builds := s.met.builds.Value()
	if _, err := s.Oracle(context.Background(), "g", 2, 5, ""); err != nil {
		t.Fatal(err)
	}
	if n := s.met.builds.Value(); n != builds {
		t.Fatalf("re-request of recent key rebuilt (builds %d -> %d)", builds, n)
	}
	// The evicted oldest key rebuilds.
	if _, err := s.Oracle(context.Background(), "g", 2, 1, ""); err != nil {
		t.Fatal(err)
	}
	if n := s.met.builds.Value(); n != builds+1 {
		t.Fatalf("evicted key did not rebuild (builds %d -> %d)", builds, n)
	}
}

// A failed build must not poison the cache.
func TestFailedBuildRetries(t *testing.T) {
	s := New(Config{Workers: 2})
	// With τ ≥ n every node is selected as a center, so a 100×100 mesh
	// yields 10000 clusters — past the oracle's 8192-cluster cap, which
	// makes the build fail deterministically.
	if err := s.RegisterGraph("g", graph.Mesh(100, 100)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Oracle(context.Background(), "g", 10000, 1, ""); err == nil {
		t.Fatal("expected the huge tau to exceed the oracle cluster cap")
	}
	// The same key must be retryable (and fail again, not deadlock).
	if _, err := s.Oracle(context.Background(), "g", 10000, 1, ""); err == nil {
		t.Fatal("second attempt unexpectedly succeeded")
	}
	if n := s.met.builds.Value(); n != 2 {
		t.Fatalf("builds = %d, want 2 (failed builds are not cached)", n)
	}
}

// A build that fails with a deterministic client-side rejection says
// nothing about the key's health: repeating the request must keep
// answering the honest 400, never trip the breaker into a 503 +
// Retry-After that invites retries which cannot succeed. Both rows are
// core.ErrInfeasible, which used to read 500, 500, 500, 503, 503 with one
// trip.
func TestClientErrorBuildDoesNotTripBreaker(t *testing.T) {
	for _, tc := range []struct {
		name, url string
		g         *graph.Graph
	}{
		{"k below components", "/kcenter?graph=g&k=1", disconnectedGraph()},
		{"oracle cluster cap", "/distance?graph=g&u=0&v=1&tau=100000", graph.Mesh(120, 120)},
	} {
		s, ts := newTestServer(t, "g", tc.g)
		for i := 1; i <= 5; i++ {
			if code := getStatus(t, ts.URL+tc.url); code != http.StatusBadRequest {
				t.Fatalf("%s: request %d: status %d want 400", tc.name, i, code)
			}
		}
		if open, trips := s.breaker.openKeys(), s.met.breakerTrips.Value(); open != 0 || trips != 0 {
			t.Fatalf("%s: client errors tripped the breaker: open_keys=%d trips=%d", tc.name, open, trips)
		}
	}
}

// TestClassify drives every error class through the one error table and
// asserts, in one place, what each means to the client (status,
// Retry-After) and to the key's breaker and trace if a build ends with it.
func TestClassify(t *testing.T) {
	key := Key{Graph: "g", Kind: "oracle", Tau: 1, Seed: 1, Algorithm: "cluster"}
	for _, tc := range []struct {
		name       string
		err        error
		status     int
		retryAfter bool
		verdict    verdict
		state      string
	}{
		{"success", nil, 200, false, success, BuildDone},
		{"bad request", badRequest("bad tau"), 400, false, neutral, BuildFailed},
		{"wrapped 4xx", &wrapErr{&httpError{http.StatusRequestEntityTooLarge, "big"}}, 413, false, neutral, BuildFailed},
		{"infeasible", fmt.Errorf("%w: k=1", core.ErrInfeasible), 400, false, neutral, BuildFailed},
		{"unknown graph", fmt.Errorf("%w %q", ErrUnknownGraph, "nope"), 404, false, neutral, BuildFailed},
		{"build timeout", fmt.Errorf("build: %w", context.DeadlineExceeded), 504, false, failure, BuildTimedOut},
		{"cancelled", fmt.Errorf("bsp: %w", context.Canceled), 503, false, neutral, BuildCancelled},
		{"shed", &ShedError{Lane: laneSlow, RetryAfter: 3 * time.Second}, 503, true, neutral, BuildFailed},
		{"breaker open", &wrapErr{&BreakerOpenError{Key: key, State: breakerOpen, RetryAfter: time.Second}}, 503, true, neutral, BuildFailed},
		{"cache full", fmt.Errorf("%w: cannot install", ErrCacheFull), 503, false, neutral, BuildFailed},
		{"shutting down", ErrShuttingDown, 503, false, neutral, BuildFailed},
		{"panic or engine failure", errors.New("serve: build panicked"), 500, false, failure, BuildFailed},
	} {
		c := classify(tc.err)
		if c.status != tc.status || (c.retryAfter > 0) != tc.retryAfter || c.verdict != tc.verdict || c.state != tc.state {
			t.Errorf("%s: classify = %+v, want status %d, Retry-After %v, verdict %d, state %q",
				tc.name, c, tc.status, tc.retryAfter, tc.verdict, tc.state)
		}
	}
}

// A snapshot install is counted by reprod_snapshot_installs_total and is
// not a build: it runs no engine and mints no build trace.
func TestInstallSnapshotReportsSnapshotCost(t *testing.T) {
	g := graph.Mesh(15, 15)
	s := New(Config{Workers: 4})
	if err := s.RegisterGraph("m", g); err != nil {
		t.Fatal(err)
	}
	art, err := s.SnapshotArtifact(context.Background(), "m", 2, 7, "cluster")
	if err != nil {
		t.Fatal(err)
	}
	s2 := New(Config{Workers: 4})
	if err := s2.InstallSnapshot(art); err != nil {
		t.Fatal(err)
	}
	if n := s2.met.installs.Value(); n != 1 {
		t.Fatalf("installs = %d, want 1", n)
	}
	if n := s2.met.builds.Value(); n != 0 {
		t.Fatalf("an install ran %d builds", n)
	}
	if bt := s2.BuildTraces(); len(bt.InFlight)+len(bt.Recent) != 0 {
		t.Fatalf("an install minted build traces: %+v", bt)
	}
	if n := s2.cachedEntries(); n != 1 {
		t.Fatalf("%d cached artifacts after one install, want 1", n)
	}
}
