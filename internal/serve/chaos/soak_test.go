package chaos

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/serve"
)

// newChaosServer builds the canonical harness fixture: a 1-worker server
// (the most hostile width — one fast-lane slot, one build-pool slot)
// over a small mesh, with the injector installed and an oracle prebuilt
// so warm /distance traffic exists from the start. mod tweaks the config
// before New.
func newChaosServer(t *testing.T, mod func(*serve.Config)) (*Injector, *serve.Server, *httptest.Server) {
	t.Helper()
	inj := New()
	cfg := serve.Config{Workers: 1, FaultInjector: inj}
	if mod != nil {
		mod(&cfg)
	}
	s := serve.New(cfg)
	if err := s.RegisterGraph("mesh", graph.Mesh(20, 20)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Oracle(context.Background(), "mesh", 2, 1, "cluster"); err != nil {
		t.Fatalf("prebuild oracle: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown did not drain: %v", err)
		}
	})
	return inj, s, ts
}

const warmDistance = "/distance?graph=mesh&tau=2&seed=1&u=0&v=399"

// get performs one GET and returns (status, body, headers).
func get(t *testing.T, url string) (int, string, http.Header) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read body: %v", url, err)
	}
	return resp.StatusCode, string(body), resp.Header
}

// metric scrapes /metrics and returns one series' value, the series named
// as the exposition spells it (`reprod_requests_shed_total{lane="slow"}`).
// A labelled series nothing has touched yet reads 0; a family the
// exposition does not declare fails the test.
func metric(t *testing.T, base, series string) float64 {
	t.Helper()
	status, body, _ := get(t, base+"/metrics")
	if status != http.StatusOK {
		t.Fatalf("/metrics status %d", status)
	}
	family, _, _ := strings.Cut(series, "{")
	if !strings.Contains(body, "# TYPE "+family+" ") {
		t.Fatalf("/metrics declares no family %s", family)
	}
	for _, line := range strings.Split(body, "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("/metrics: malformed sample %q", line)
			}
			return f
		}
	}
	return 0
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// retryAfterSeconds asserts the response carries a positive integer
// Retry-After and returns it.
func retryAfterSeconds(t *testing.T, h http.Header) int {
	t.Helper()
	v := h.Get("Retry-After")
	if v == "" {
		t.Fatal("shed response carries no Retry-After header")
	}
	secs, err := strconv.Atoi(v)
	if err != nil || secs < 1 {
		t.Fatalf("Retry-After %q is not a positive integer", v)
	}
	return secs
}

// TestFastLanePinnedWhileColdBuildRuns is the tentpole invariant: at
// Workers=1, a multi-second cold build must not make warm traffic queue
// behind it — the blocked request parks its fast-lane slot, so cached
// /distance latency stays bounded for the build's whole lifetime.
func TestFastLanePinnedWhileColdBuildRuns(t *testing.T) {
	inj, _, ts := newChaosServer(t, nil)
	gate := make(chan struct{})
	inj.SetKind("diameter", Rule{Block: gate})

	coldDone := make(chan int, 1)
	go func() {
		status, _, _ := get(t, ts.URL+"/diameter?graph=mesh&tau=3&seed=1")
		coldDone <- status
	}()
	key := serve.Key{Graph: "mesh", Kind: "diameter", Tau: 3, Seed: 1, Algorithm: "cluster"}
	waitFor(t, 5*time.Second, "cold build to start", func() bool { return inj.Starts(key) >= 1 })

	// The build now provably occupies the only build-pool slot and its
	// request is parked. Warm traffic through the only fast-lane slot
	// must flow at cached-lookup speed.
	var worst time.Duration
	for i := 0; i < 50; i++ {
		start := time.Now()
		status, body, _ := get(t, ts.URL+warmDistance)
		if status != http.StatusOK {
			t.Fatalf("warm request %d: status %d (%s)", i, status, body)
		}
		if d := time.Since(start); d > worst {
			worst = d
		}
	}
	// Microsecond work, second-scale bound: generous enough for -race on
	// loaded CI, still orders of magnitude under the blocked build.
	if worst > 2*time.Second {
		t.Fatalf("warm latency reached %v while a cold build was running", worst)
	}
	select {
	case status := <-coldDone:
		t.Fatalf("cold build finished early with status %d", status)
	default:
	}

	close(gate)
	select {
	case status := <-coldDone:
		if status != http.StatusOK {
			t.Fatalf("cold build status %d after unblock", status)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cold build did not complete after unblock")
	}
}

// TestSlotGaugeSkipsParkedRequests: a request parked on a cold build holds
// no fast-lane slot, so reprod_request_slots_in_use must not count it. At
// Workers=1, five /diameter requests camp on one blocked build: the gauge
// reads 0 and warm /distance still answers 200, while the slow lane holds
// the one build.
func TestSlotGaugeSkipsParkedRequests(t *testing.T) {
	inj, s, ts := newChaosServer(t, nil)
	gate := make(chan struct{})
	inj.SetKind("diameter", Rule{Block: gate})
	// A failed assertion must still unblock the build: the server's
	// cleanup waits for the parked requests.
	unblock := sync.OnceFunc(func() { close(gate) })
	defer unblock()

	const parked = 5
	statuses := make(chan int, parked)
	for i := 0; i < parked; i++ {
		go func() {
			resp, err := http.Get(ts.URL + "/diameter?graph=mesh&tau=3&seed=1")
			if err != nil {
				statuses <- 0
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			statuses <- resp.StatusCode
		}()
	}
	waitFor(t, 5*time.Second, "five requests waiting on the blocked build", func() bool {
		tr := s.BuildTraces().InFlight
		return len(tr) == 1 && tr[0].Waiters == parked
	})
	// Each waiter parks its slot right after joining the build.
	waitFor(t, 5*time.Second, "reprod_request_slots_in_use to read 0 with every request parked", func() bool {
		return metric(t, ts.URL, "reprod_request_slots_in_use") == 0
	})
	if status, body, _ := get(t, ts.URL+warmDistance); status != http.StatusOK {
		t.Fatalf("warm request with every request parked: status %d (%s)", status, body)
	}
	for series, want := range map[string]float64{
		"reprod_request_slots_in_use":  0,
		"reprod_fast_lane_queue_depth": 0,
		"reprod_builds_in_flight":      1,
		"reprod_build_pool_occupancy":  1,
	} {
		if got := metric(t, ts.URL, series); got != want {
			t.Fatalf("%s = %v with %d requests parked on one build, want %v", series, got, parked, want)
		}
	}

	unblock()
	for i := 0; i < parked; i++ {
		if status := <-statuses; status != http.StatusOK {
			t.Fatalf("parked request status %d after unblock", status)
		}
	}
}

// TestSlowLaneShedsWithRetryAfter drives the slow lane past its bound:
// with no wait queue and the only build slot provably occupied, the next
// cold key is shed with 503 + a positive Retry-After, and the shed key
// builds fine once the lane drains.
func TestSlowLaneShedsWithRetryAfter(t *testing.T) {
	inj, _, ts := newChaosServer(t, func(c *serve.Config) { c.SlowLaneQueue = -1 })
	gate := make(chan struct{})
	inj.SetKind("diameter", Rule{Block: gate})

	coldDone := make(chan int, 1)
	go func() {
		status, _, _ := get(t, ts.URL+"/diameter?graph=mesh&tau=3&seed=1")
		coldDone <- status
	}()
	key := serve.Key{Graph: "mesh", Kind: "diameter", Tau: 3, Seed: 1, Algorithm: "cluster"}
	waitFor(t, 5*time.Second, "cold build to start", func() bool { return inj.Starts(key) >= 1 })

	status, body, header := get(t, ts.URL+"/diameter?graph=mesh&tau=4&seed=1")
	if status != http.StatusServiceUnavailable {
		t.Fatalf("second cold key: status %d (%s), want 503", status, body)
	}
	retryAfterSeconds(t, header)
	if !strings.Contains(body, "slow lane") {
		t.Fatalf("shed body %q does not name the slow lane", body)
	}
	if n := metric(t, ts.URL, `reprod_requests_shed_total{lane="slow"}`); n < 1 {
		t.Fatalf("slow-lane sheds = %v after a slow-lane shed", n)
	}

	// Warm traffic is untouched by slow-lane saturation.
	if status, body, _ := get(t, ts.URL+warmDistance); status != http.StatusOK {
		t.Fatalf("warm request during slow-lane saturation: status %d (%s)", status, body)
	}

	close(gate)
	if status := <-coldDone; status != http.StatusOK {
		t.Fatalf("blocked cold build status %d after unblock", status)
	}
	// The lane has drained: the previously shed key is admitted now.
	if status, body, _ := get(t, ts.URL+"/diameter?graph=mesh&tau=4&seed=1"); status != http.StatusOK {
		t.Fatalf("shed key after drain: status %d (%s)", status, body)
	}
}

// TestBreakerTripsAndRecovers poisons one key, watches the breaker open
// within BreakerThreshold failures without burning further builds, and
// heals the key through the half-open probe after the cooldown.
func TestBreakerTripsAndRecovers(t *testing.T) {
	const cooldown = 200 * time.Millisecond
	inj, _, ts := newChaosServer(t, func(c *serve.Config) {
		c.BreakerThreshold = 3
		c.BreakerCooldown = cooldown
	})
	key := serve.Key{Graph: "mesh", Kind: "diameter", Tau: 5, Seed: 1, Algorithm: "cluster"}
	poisoned := ts.URL + "/diameter?graph=mesh&tau=5&seed=1"
	inj.Set(key, Rule{Err: fmt.Errorf("chaos: poisoned build")})

	for i := 1; i <= 3; i++ {
		status, body, _ := get(t, poisoned)
		if status != http.StatusInternalServerError {
			t.Fatalf("poisoned attempt %d: status %d (%s)", i, status, body)
		}
	}
	if n := inj.Starts(key); n != 3 {
		t.Fatalf("poisoned key built %d times, want 3", n)
	}

	// Tripped: the next request is refused without reaching the build.
	status, body, header := get(t, poisoned)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("open-breaker request: status %d (%s), want 503", status, body)
	}
	retryAfterSeconds(t, header)
	if !strings.Contains(body, "circuit breaker") {
		t.Fatalf("open-breaker body %q does not name the breaker", body)
	}
	if n := inj.Starts(key); n != 3 {
		t.Fatalf("open breaker still admitted a build (starts=%d)", n)
	}
	trips := metric(t, ts.URL, "reprod_breaker_trips_total")
	rejected := metric(t, ts.URL, "reprod_breaker_rejected_total")
	open := metric(t, ts.URL, "reprod_breaker_open_keys")
	if trips < 1 || rejected < 1 || open != 1 {
		t.Fatalf("breaker metrics after trip: trips=%v rejected=%v open=%v", trips, rejected, open)
	}

	// Heal the key and wait out the cooldown: the next request is the
	// half-open probe, succeeds, and closes the breaker for good.
	inj.Clear(key)
	time.Sleep(cooldown + 100*time.Millisecond)
	if status, body, _ := get(t, poisoned); status != http.StatusOK {
		t.Fatalf("half-open probe: status %d (%s), want 200", status, body)
	}
	if n := inj.Starts(key); n != 4 {
		t.Fatalf("probe should be exactly one build (starts=%d, want 4)", n)
	}
	if open := metric(t, ts.URL, "reprod_breaker_open_keys"); open != 0 {
		t.Fatalf("breaker still open after successful probe (open=%v)", open)
	}
	// And the artifact is cached like any other.
	if status, _, _ := get(t, poisoned); status != http.StatusOK || inj.Starts(key) != 4 {
		t.Fatalf("healed key not served from cache (starts=%d)", inj.Starts(key))
	}
}

// TestBreakerReopensAfterFailedProbe verifies the half-open → open edge:
// a probe that fails re-trips the breaker immediately.
func TestBreakerReopensAfterFailedProbe(t *testing.T) {
	const cooldown = 150 * time.Millisecond
	inj, _, ts := newChaosServer(t, func(c *serve.Config) {
		c.BreakerThreshold = 2
		c.BreakerCooldown = cooldown
	})
	key := serve.Key{Graph: "mesh", Kind: "diameter", Tau: 6, Seed: 1, Algorithm: "cluster"}
	poisoned := ts.URL + "/diameter?graph=mesh&tau=6&seed=1"
	inj.Set(key, Rule{Err: fmt.Errorf("chaos: still poisoned")})

	for i := 0; i < 2; i++ {
		get(t, poisoned)
	}
	time.Sleep(cooldown + 100*time.Millisecond)
	// Probe runs (still poisoned) and fails: breaker re-opens at once.
	if status, _, _ := get(t, poisoned); status != http.StatusInternalServerError {
		t.Fatal("expected the probe build to run and fail")
	}
	status, _, header := get(t, poisoned)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("after failed probe: status %d, want 503", status)
	}
	retryAfterSeconds(t, header)
	if n := inj.Starts(key); n != 3 {
		t.Fatalf("builds after failed probe = %d, want 3 (2 trips + 1 probe)", n)
	}
}

// TestPanickingBuildTripsBreaker routes an injected panic through the
// build's containment and into the breaker's failure count.
func TestPanickingBuildTripsBreaker(t *testing.T) {
	inj, _, ts := newChaosServer(t, func(c *serve.Config) { c.BreakerThreshold = 2 })
	key := serve.Key{Graph: "mesh", Kind: "diameter", Tau: 7, Seed: 1, Algorithm: "cluster"}
	inj.Set(key, Rule{Panic: "chaos: injected panic"})
	url := ts.URL + "/diameter?graph=mesh&tau=7&seed=1"

	for i := 0; i < 2; i++ {
		status, body, _ := get(t, url)
		if status != http.StatusInternalServerError || !strings.Contains(body, "panicked") {
			t.Fatalf("panicking build attempt %d: status %d (%s)", i, status, body)
		}
	}
	if status, _, _ := get(t, url); status != http.StatusServiceUnavailable {
		t.Fatalf("breaker did not trip on panics: status %d", status)
	}
	// The daemon survived two build panics; warm traffic is untouched.
	if status, _, _ := get(t, ts.URL+warmDistance); status != http.StatusOK {
		t.Fatal("warm traffic broken after contained panics")
	}
}

// TestBuildTimeoutAnswers504 pins the server-side build deadline: a
// build that outruns Config.BuildTimeout is killed, its waiter answers
// 504 (not 503), the timed-out state is counted, and the key is
// immediately retryable once healed.
func TestBuildTimeoutAnswers504(t *testing.T) {
	inj, _, ts := newChaosServer(t, func(c *serve.Config) { c.BuildTimeout = 150 * time.Millisecond })
	key := serve.Key{Graph: "mesh", Kind: "diameter", Tau: 8, Seed: 1, Algorithm: "cluster"}
	inj.Set(key, Rule{Delay: 30 * time.Second})
	url := ts.URL + "/diameter?graph=mesh&tau=8&seed=1"

	status, body, _ := get(t, url)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("timed-out build: status %d (%s), want 504", status, body)
	}
	if n := metric(t, ts.URL, "reprod_builds_timed_out_total"); n != 1 {
		t.Fatalf("timed-out builds = %v, want 1", n)
	}
	inj.Clear(key)
	if status, body, _ := get(t, url); status != http.StatusOK {
		t.Fatalf("healed key after timeout: status %d (%s)", status, body)
	}
}

// TestSlowClientDoesNotStallOthers is the slow-client fault: a client
// that stalls mid-request-body camps on the only fast-lane slot, so with
// no wait queue the next request is shed instantly (503 + Retry-After)
// instead of queueing behind a socket — and service resumes the moment
// the slow client goes away.
func TestSlowClientDoesNotStallOthers(t *testing.T) {
	_, _, ts := newChaosServer(t, func(c *serve.Config) { c.FastLaneQueue = -1 })

	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Declare a body we never finish sending: the batch handler blocks
	// reading it while holding its fast-lane slot.
	_, err = io.WriteString(conn, "POST /distance-batch?graph=mesh&tau=2&seed=1 HTTP/1.1\r\n"+
		"Host: chaos\r\nContent-Type: application/json\r\nContent-Length: 4096\r\n\r\n{\"pairs\":[[0,1]")
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "slow client to occupy the fast lane", func() bool {
		return metric(t, ts.URL, "reprod_request_slots_in_use") == 1
	})

	status, body, header := get(t, ts.URL+warmDistance)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("request behind slow client: status %d (%s), want 503", status, body)
	}
	retryAfterSeconds(t, header)
	if !strings.Contains(body, "fast lane") {
		t.Fatalf("shed body %q does not name the fast lane", body)
	}
	if n := metric(t, ts.URL, `reprod_requests_shed_total{lane="fast"}`); n < 1 {
		t.Fatalf("fast-lane sheds = %v after a fast-lane shed", n)
	}

	conn.Close()
	waitFor(t, 5*time.Second, "fast lane to recover after disconnect", func() bool {
		status, _, _ := get(t, ts.URL+warmDistance)
		return status == http.StatusOK
	})
}

// TestSoakMixedTrafficNoLeaks is the harness's capstone: a 1-worker
// server under concurrent hot, cold, poisoned, and disconnecting
// traffic, then a full audit — no lost fast-lane or build-pool slots, no
// stuck slow-lane accounting, no leaked goroutines, warm latency bounded
// throughout, and the shed/breaker counters consistent with what the
// clients saw.
func TestSoakMixedTrafficNoLeaks(t *testing.T) {
	baseline := runtime.NumGoroutine()
	inj, s, ts := newChaosServer(t, func(c *serve.Config) {
		c.SlowLaneQueue = 1
		c.BreakerThreshold = 3
		c.BreakerCooldown = 50 * time.Millisecond
	})
	inj.SetKind("diameter", Rule{Delay: 20 * time.Millisecond})
	poisonKey := serve.Key{Graph: "mesh", Kind: "kcenter", Tau: 3, Seed: 1, Algorithm: "cluster"}
	inj.Set(poisonKey, Rule{Err: fmt.Errorf("chaos: poisoned")})

	const soakFor = 1500 * time.Millisecond
	stop := time.Now().Add(soakFor)
	var (
		wg        sync.WaitGroup
		worstWarm atomic.Int64
		warmOK    atomic.Int64
		sheds     atomic.Int64
		failures  atomic.Int64 // statuses outside the expected set, reported once
	)
	expect := func(status int, allowed ...int) {
		for _, a := range allowed {
			if status == a {
				return
			}
		}
		failures.Add(1)
	}

	// Hot workers: cached point and batch queries, always 200 (the fast
	// lane's default queue absorbs this concurrency), latency tracked.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for time.Now().Before(stop) {
				u, v := rng.Intn(400), rng.Intn(400)
				start := time.Now()
				status, _, _ := get(t, fmt.Sprintf("%s/distance?graph=mesh&tau=2&seed=1&u=%d&v=%d", ts.URL, u, v))
				d := int64(time.Since(start))
				for {
					cur := worstWarm.Load()
					if d <= cur || worstWarm.CompareAndSwap(cur, d) {
						break
					}
				}
				if status == http.StatusOK {
					warmOK.Add(1)
				}
				expect(status, http.StatusOK)
			}
		}(int64(w))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for time.Now().Before(stop) {
			resp, err := http.Post(ts.URL+"/distance-batch?graph=mesh&tau=2&seed=1",
				"application/json", strings.NewReader(`{"pairs":[[0,1],[5,200],[399,399]]}`))
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				expect(resp.StatusCode, http.StatusOK)
			}
		}
	}()
	// Cold worker: cycles fresh diameter keys; 200 or a shed 503 are both
	// legitimate under a full slow lane.
	wg.Add(1)
	go func() {
		defer wg.Done()
		tau := 3
		for time.Now().Before(stop) {
			status, _, header := get(t, fmt.Sprintf("%s/diameter?graph=mesh&tau=%d&seed=1", ts.URL, tau))
			if status == http.StatusServiceUnavailable {
				sheds.Add(1)
				retryAfterSeconds(t, header)
			}
			expect(status, http.StatusOK, http.StatusServiceUnavailable)
			tau++
			if tau > 9 {
				tau = 3
			}
		}
	}()
	// Poison worker: hammers the poisoned key; 500 while building, 503
	// once the breaker opens (or the slow lane sheds it).
	wg.Add(1)
	go func() {
		defer wg.Done()
		for time.Now().Before(stop) {
			status, _, _ := get(t, ts.URL+"/kcenter?graph=mesh&k=3&seed=1")
			expect(status, http.StatusInternalServerError, http.StatusServiceUnavailable)
			time.Sleep(10 * time.Millisecond)
		}
	}()
	// Disconnect worker: starts cold builds and abandons them.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for time.Now().Before(stop) {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
			req, _ := http.NewRequestWithContext(ctx, http.MethodGet,
				ts.URL+"/diameter?graph=mesh&tau=11&seed=1", nil)
			if resp, err := http.DefaultClient.Do(req); err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
			cancel()
		}
	}()
	wg.Wait()

	if n := failures.Load(); n > 0 {
		t.Errorf("%d responses outside their scenario's expected status set", n)
	}
	if warmOK.Load() == 0 {
		t.Fatal("soak produced no successful warm requests")
	}
	if worst := time.Duration(worstWarm.Load()); worst > 3*time.Second {
		t.Errorf("worst warm latency %v under soak; fast lane not isolated", worst)
	}

	// Audit: every slot repaid, every lane drained, nothing left running.
	waitFor(t, 10*time.Second, "in-flight requests and builds to drain", func() bool {
		return metric(t, ts.URL, "reprod_request_slots_in_use") == 0
	})
	scrape := func() string {
		_, body, _ := get(t, ts.URL+"/metrics")
		return body
	}
	waitFor(t, 10*time.Second, "slow lane to drain", func() bool {
		return strings.Contains(scrape(), "reprod_builds_in_flight 0")
	})
	exposition := scrape()
	for _, want := range []string{
		"reprod_request_slots_in_use 0",
		"reprod_fast_lane_queue_depth 0",
		"reprod_build_pool_occupancy 0",
	} {
		if !strings.Contains(exposition, want) {
			t.Errorf("post-soak exposition missing %q", want)
		}
	}
	if n := metric(t, ts.URL, `reprod_requests_shed_total{lane="slow"}`); n < float64(sheds.Load()) {
		t.Errorf("slow-lane sheds = %v but clients saw %d shed cold requests", n, sheds.Load())
	}
	if metric(t, ts.URL, "reprod_requests_client_gone_total") == 0 {
		t.Error("disconnect worker left no reprod_requests_client_gone_total trace")
	}

	// A full-width fast lane and a working build path survive the soak.
	if status, body, _ := get(t, ts.URL+warmDistance); status != http.StatusOK {
		t.Fatalf("warm request after soak: status %d (%s)", status, body)
	}
	if status, body, _ := get(t, ts.URL+"/diameter?graph=mesh&tau=13&seed=1"); status != http.StatusOK {
		t.Fatalf("cold build after soak: status %d (%s)", status, body)
	}

	// Goroutine audit: drain the server and the client pool, then demand
	// we return to (near) the pre-soak population.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown after soak: %v", err)
	}
	ts.Close()
	http.DefaultClient.CloseIdleConnections()
	waitFor(t, 10*time.Second, "goroutines to return to baseline", func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= baseline+5
	})
}
