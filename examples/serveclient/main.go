// Query-service client: start a repro.Server in-process over a road-like
// graph, then drive it with many concurrent HTTP clients the way a
// production deployment of cmd/reprod would be driven, reporting
// throughput and latency of the point and batch query paths.
//
// Run with:
//
//	go run ./examples/serveclient
//
// To drive an external daemon instead (start one with
// `go run ./cmd/reprod -gen road:250x250 -name road`):
//
//	go run ./examples/serveclient -addr http://localhost:8080 -graph road
package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"time"

	"repro"
	"repro/internal/rng"
)

func main() {
	addr := flag.String("addr", "", "base URL of a running reprod daemon (default: in-process server)")
	graphName := flag.String("graph", "road", "graph name to query")
	clients := flag.Int("clients", 32, "concurrent clients")
	queries := flag.Int("queries", 200, "queries per client")
	nodes := flag.Int("nodes", 62500, "node id range to sample (in-process default graph: 250x250 road)")
	flag.Parse()

	base := *addr
	if base == "" {
		// No daemon given: serve in-process, exactly what cmd/reprod does.
		g := repro.RoadLike(250, 250, 0.4, 5)
		srv := repro.NewServer(repro.ServeConfig{DefaultTau: 4})
		if err := srv.RegisterGraph(*graphName, g); err != nil {
			log.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		base = ts.URL
		*nodes = g.NumNodes()
		fmt.Printf("in-process server over %q: n=%d m=%d\n", *graphName, g.NumNodes(), g.NumEdges())
	}

	// One throwaway request triggers (and waits for) the oracle build so
	// the measured run sees only O(1) lookups.
	warm := time.Now()
	if err := get(base + "/distance?graph=" + *graphName + "&u=0&v=1"); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("first query (incl. build): %v\n\n", time.Since(warm).Round(time.Millisecond))

	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		lats    []time.Duration
		failed  int
		started = time.Now()
	)
	for c := 0; c < *clients; c++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			r := rng.New(uint64(id) + 1)
			local := make([]time.Duration, 0, *queries)
			localFailed := 0
			for q := 0; q < *queries; q++ {
				u := r.Intn(*nodes)
				v := r.Intn(*nodes)
				t0 := time.Now()
				err := get(fmt.Sprintf("%s/distance?graph=%s&u=%d&v=%d", base, *graphName, u, v))
				if err != nil {
					localFailed++
					continue
				}
				local = append(local, time.Since(t0))
			}
			// Merge per-client results once, outside the measured loop, so
			// the lock never perturbs individual latencies.
			mu.Lock()
			lats = append(lats, local...)
			failed += localFailed
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(started)

	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	total := len(lats)
	fmt.Printf("%d clients x %d queries: %d ok, %d failed in %v (%.0f qps)\n",
		*clients, *queries, total, failed, elapsed.Round(time.Millisecond),
		float64(total)/elapsed.Seconds())
	if total > 0 {
		fmt.Printf("latency p50=%v p95=%v p99=%v max=%v\n",
			lats[total/2].Round(time.Microsecond),
			lats[total*95/100].Round(time.Microsecond),
			lats[total*99/100].Round(time.Microsecond),
			lats[total-1].Round(time.Microsecond))
	}

	// Batch path: the same pair workload as one client, posted as
	// /distance-batch requests in both encodings. The effective pairs/sec
	// is what a bulk consumer (all-pairs sampling, evaluation sweeps) sees.
	runBatches(base, *graphName, *nodes)
}

// runBatches posts the same random pairs through /distance-batch with the
// JSON and the dense binary encoding and prints the effective pairs/sec of
// each, next to the point-query throughput printed above.
func runBatches(base, graphName string, nodes int) {
	const (
		pairsPerBatch = 4096
		batches       = 25
	)
	r := rng.New(99)
	pairs := make([][2]int32, pairsPerBatch)
	for i := range pairs {
		pairs[i] = [2]int32{int32(r.Intn(nodes)), int32(r.Intn(nodes))}
	}
	jsonBody, err := json.Marshal(map[string]any{"pairs": pairs})
	if err != nil {
		log.Fatal(err)
	}
	frame := make([]byte, 8+8*len(pairs))
	copy(frame, "RPB1")
	binary.LittleEndian.PutUint32(frame[4:8], uint32(len(pairs)))
	for i, p := range pairs {
		binary.LittleEndian.PutUint32(frame[8+8*i:], uint32(p[0]))
		binary.LittleEndian.PutUint32(frame[8+8*i+4:], uint32(p[1]))
	}
	url := base + "/distance-batch?graph=" + graphName
	fmt.Printf("\nbatch path (%d batches x %d pairs):\n", batches, pairsPerBatch)
	for _, enc := range []struct {
		name        string
		contentType string
		body        []byte
	}{
		{"json", "application/json", jsonBody},
		{"binary", "application/x-reprod-pairs", frame},
	} {
		post := func() {
			resp, err := http.Post(url, enc.contentType, bytes.NewReader(enc.body))
			if err != nil {
				log.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				log.Fatalf("batch (%s): status %d", enc.name, resp.StatusCode)
			}
		}
		post() // warm the server's scratch pools
		t0 := time.Now()
		for i := 0; i < batches; i++ {
			post()
		}
		elapsed := time.Since(t0)
		fmt.Printf("  %-6s %8.2fms total, avg %6.0fµs/batch, %5.1fM pairs/sec\n",
			enc.name, float64(elapsed.Nanoseconds())/1e6,
			float64(elapsed.Microseconds())/batches,
			float64(pairsPerBatch)*batches/elapsed.Seconds()/1e6)
	}
}

func get(url string) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d from %s", resp.StatusCode, url)
	}
	return nil
}
