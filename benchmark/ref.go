package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/graph"
)

// This file holds the two reference kernels every gated timing is divided
// by. They are part of the benchmark's definition: a later change may not
// edit them, or every ratio ever recorded stops being comparable.

// refBFS is the x_bfs unit: a sequential queue BFS over a private int32
// copy of the workload graph's CSR. It shares no code with the repository,
// so an optimisation of graph/bsp cannot speed up the yardstick.
type refBFS struct {
	xadj  []int32 // n+1 offsets into adj
	adj   []int32
	dist  []int32 // hop distances of the last sweep, -1 = unreached
	queue []int32
}

func newRefBFS(g *graph.Graph) (*refBFS, error) {
	xadj, adj := g.CSR()
	n := g.NumNodes()
	if len(adj) > 1<<31-1 {
		return nil, fmt.Errorf("ref.bfs: %d arcs do not fit int32 offsets", len(adj))
	}
	r := &refBFS{
		xadj:  make([]int32, n+1),
		adj:   append([]int32(nil), adj...),
		dist:  make([]int32, n),
		queue: make([]int32, n),
	}
	for i := 0; i <= n; i++ {
		r.xadj[i] = int32(xadj[i])
	}
	return r, nil
}

// sweep runs one BFS from the given sources (all at distance 0) and
// returns how many nodes it reached and the largest distance it assigned.
// Distances stay readable in r.dist until the next sweep.
func (r *refBFS) sweep(sources ...int32) (reached int, ecc int32) {
	dist, queue, xadj, adj := r.dist, r.queue, r.xadj, r.adj
	for i := range dist {
		dist[i] = -1
	}
	tail := 0
	for _, s := range sources {
		if dist[s] < 0 {
			dist[s] = 0
			queue[tail] = s
			tail++
		}
	}
	for head := 0; head < tail; head++ {
		u := queue[head]
		du := dist[u]
		ecc = du
		for _, v := range adj[xadj[u]:xadj[u+1]] {
			if dist[v] < 0 {
				dist[v] = du + 1
				queue[tail] = v
				tail++
			}
		}
	}
	return tail, ecc
}

// refBlockMin is the shortest a reference block runs; short sweeps repeat
// until it has passed.
const refBlockMin = 50 * time.Millisecond

// block repeats the sweep from node 0 for at least refBlockMin and returns
// the median seconds per sweep (the mean, when the block fits only two).
func (r *refBFS) block() float64 {
	var sweeps []float64
	start := time.Now()
	last := start
	for {
		r.sweep(0)
		now := time.Now()
		sweeps = append(sweeps, now.Sub(last).Seconds())
		last = now
		if now.Sub(start) >= refBlockMin {
			return median(sweeps)
		}
	}
}

// echoHandler is the x_echo unit: a bare net/http server that answers
// GET /distance with a fixed body of pointBody bytes (the size of the
// daemon's answer) and POST /distance-batch by echoing the request body,
// which for an RPB1 frame is exactly the size of the daemon's RPD1 answer.
func echoHandler(pointBody int) http.Handler {
	body := make([]byte, pointBody)
	for i := range body {
		body[i] = 'x'
	}
	pointLen := strconv.Itoa(pointBody)
	bufs := sync.Pool{New: func() any { return new(bytes.Buffer) }}
	mux := http.NewServeMux()
	mux.HandleFunc("/distance", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Length", pointLen)
		_, _ = w.Write(body) // a failed write is the client's broken connection; it reports it
	})
	mux.HandleFunc("/distance-batch", func(w http.ResponseWriter, r *http.Request) {
		buf := bufs.Get().(*bytes.Buffer)
		defer bufs.Put(buf)
		buf.Reset()
		if _, err := buf.ReadFrom(r.Body); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
		_, _ = w.Write(buf.Bytes())
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.WriteString(w, "ok\n")
	})
	return mux
}

// serveEcho is the body of the re-exec'd echo process.
func serveEcho(addr string, pointBody int) error {
	srv := &http.Server{Addr: addr, Handler: echoHandler(pointBody)}
	return srv.ListenAndServe()
}
