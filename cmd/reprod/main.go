// Command reprod is the long-running query daemon: it loads a graph (from
// an edge list, a generator spec, or a binary snapshot), builds the
// paper's distance oracle once, and serves distance / cluster-of /
// diameter / k-center queries over HTTP/JSON until stopped.
//
// Cold start, building the oracle and persisting it for next time:
//
//	reprod -graph road.txt -name road -tau 4 -seed 1 -snapshot road.snap
//
// Warm restart — the snapshot carries graph + oracle, no rebuild:
//
//	reprod -snapshot road.snap
//
// Synthetic graph without a file, from graphgen's generator specs
// (graph.Generate: mesh:WxH, road:WxH[:keep], ba:N[:deg], rmat:SCALE[:deg],
// er:N[:deg], expanderpath:N), always drawn at seed 1:
//
//	reprod -gen mesh:500x500 -name mesh -tau 8
//
// Query it:
//
//	curl 'localhost:8080/distance?graph=road&u=17&v=90210'
//	curl 'localhost:8080/diameter?graph=road'
//	curl 'localhost:8080/kcenter?graph=road&k=32'
//	curl 'localhost:8080/metrics'   # Prometheus text exposition
//	curl 'localhost:8080/builds'    # build traces: in-flight + recent
//
// Observability: -log-requests emits one structured line per request
// (request id, status, latency, artifact key, cache outcome), and
// -debug-addr serves net/http/pprof on a separate mux so profiling never
// rides the query port.
//
// Endpoint parameters tau/seed/algo select the artifact; omitted they fall
// back to the daemon's -tau/-seed/-algo defaults, so clients that do not
// care about build parameters hit the prebuilt artifact.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/graph"
	"repro/internal/serve"
	"repro/internal/snapshot"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "HTTP listen address")
		graphIn  = flag.String("graph", "", "input edge-list file")
		gen      = flag.String("gen", "", "generator spec (seed 1): "+graph.GenerateSpecs)
		name     = flag.String("name", "", "name to serve the graph under (default: derived from -graph/-gen)")
		snapPath = flag.String("snapshot", "", "snapshot file: loaded if it exists (skipping the build), written after the build otherwise")
		tau      = flag.Int("tau", 0, "default oracle granularity (0 = paper default)")
		seed     = flag.Uint64("seed", 1, "default decomposition seed")
		algo     = flag.String("algo", "cluster", "default decomposition: cluster | cluster2")
		workers  = flag.Int("workers", 0, "request worker pool size (0 = GOMAXPROCS)")
		build    = flag.Int("build-workers", 0, "BSP workers for artifact builds (0 = GOMAXPROCS)")
		lazy     = flag.Bool("lazy", false, "skip the startup oracle build; first query pays it")
		drain    = flag.Duration("drain", 15*time.Second, "graceful-shutdown budget: cancel builds, drain handlers, write the snapshot")
		logReqs  = flag.Bool("log-requests", false, "log one structured line per HTTP request (id, method, path, status, latency, artifact key, cache outcome)")
		buildTO  = flag.Duration("build-timeout", 0, "server-side deadline for one artifact build's running phase; past it the build is cancelled and its waiters answer 504 (0 = unbounded)")
		fastQ    = flag.Int("fast-queue", 0, "bounded wait queue for the fast lane (cached lookups and queries) before requests are shed with 503+Retry-After (0 = 256, negative = no queue)")
		slowQ    = flag.Int("slow-queue", 0, "how many cold builds may be pending beyond the build pool before new builds are shed with 503+Retry-After (0 = 4x workers, negative = no queue)")
		debug    = flag.String("debug-addr", "", "listen address for the net/http/pprof debug mux (empty = disabled); kept off the service mux so profiling is never exposed on the query port")
	)
	flag.Parse()

	// A loadable snapshot wins: its metadata becomes the request defaults,
	// so clients that omit tau/seed/algo hit the loaded artifact instead of
	// triggering a rebuild under a slightly different key.
	var art *snapshot.Artifact
	if *snapPath != "" {
		var err error
		if art, err = snapshot.Load(*snapPath); err != nil && !errors.Is(err, os.ErrNotExist) {
			// A corrupt snapshot is fatal only when it is the sole source;
			// with -graph/-gen available, fall through to the cold path,
			// which rebuilds and overwrites the bad file.
			if *graphIn == "" && *gen == "" {
				log.Fatalf("reprod: snapshot %s unreadable: %v", *snapPath, err)
			}
			log.Printf("reprod: ignoring unreadable snapshot %s (%v); rebuilding", *snapPath, err)
			art = nil
		}
	}
	defTau, defSeed, defAlgo := *tau, *seed, *algo
	if art != nil && art.Oracle != nil {
		defTau, defSeed, defAlgo = art.Meta.Tau, art.Meta.Seed, art.Meta.Algorithm
	}
	cfg := serve.Config{
		Workers:          *workers,
		DefaultTau:       defTau,
		DefaultSeed:      defSeed,
		DefaultAlgorithm: defAlgo,
		BuildWorkers:     *build,
		BuildTimeout:     *buildTO,
		FastLaneQueue:    *fastQ,
		SlowLaneQueue:    *slowQ,
	}
	if *logReqs {
		cfg.RequestLog = logRequest
	}
	s := serve.New(cfg)

	graphName, err := bootstrap(s, art, *graphIn, *gen, *name, *snapPath, *tau, *seed, *algo, *lazy)
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}

	srv := &http.Server{
		Addr:    *addr,
		Handler: s.Handler(),
		// Idle half-open connections must not pin goroutines forever: a
		// client that opens a socket and never finishes its headers is cut
		// off, not accumulated. No WriteTimeout: a fixed response deadline
		// would permanently cap the largest cold build an endpoint can
		// serve (each retry would restart the build and die at the same
		// wall); clients that give up instead cancel the build via the
		// serve layer's last-waiter accounting.
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	if *debug != "" {
		go serveDebug(*debug)
	}
	go func() {
		log.Printf("reprod: serving %v on %s", s.GraphNames(), *addr)
		log.Printf("reprod: try  curl 'http://localhost%s/distance?graph=%s&u=0&v=1'",
			portOf(*addr), graphName)
		if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatal(err)
		}
	}()

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	<-stop
	log.Print("reprod: shutting down")
	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	// Order matters: cancelling the in-flight builds first turns every
	// handler blocked on a build into an immediate 503, so the HTTP drain
	// that follows completes quickly instead of riding out a multi-second
	// decomposition the departing clients no longer want. Requests racing
	// the drain cannot start fresh builds — the server rejects them with
	// ErrShuttingDown once its Shutdown has begun.
	if err := s.Shutdown(ctx); err != nil {
		log.Printf("reprod: %v", err)
	}
	if err := srv.Shutdown(ctx); err != nil {
		log.Printf("reprod: http drain: %v", err)
	}
	// A lazily built oracle was never persisted at startup; write it now so
	// the next start is warm. Only a cached, completed oracle is written —
	// shutdown must never trigger a build — and only within the -drain
	// budget: past the deadline a supervisor is about to SIGKILL us, and
	// starting a large write then would just be torn up.
	if *snapPath != "" && *lazy && ctx.Err() == nil {
		if built, ok, err := s.CachedOracleArtifact(graphName, *tau, *seed, *algo); err != nil {
			log.Printf("reprod: shutdown snapshot: %v", err)
		} else if ok {
			if err := snapshot.Save(*snapPath, built); err != nil {
				log.Printf("reprod: shutdown snapshot: %v", err)
			} else {
				log.Printf("reprod: wrote snapshot %s before exit", *snapPath)
			}
		}
	}
	log.Print("reprod: bye")
}

// logRequest is the -log-requests sink: one line per completed request in
// logfmt shape, carrying the request id the response echoed as
// X-Request-ID so a client-reported failure can be joined to this log.
func logRequest(e serve.RequestLogEntry) {
	line := fmt.Sprintf("req id=%s method=%s path=%s status=%d latency=%s",
		e.ID, e.Method, e.Path, e.Status, e.Latency.Round(time.Microsecond))
	if e.ArtifactKey != "" {
		line += fmt.Sprintf(" artifact=%q cache=%s", e.ArtifactKey, e.Cache)
	}
	log.Print(line)
}

// serveDebug runs the net/http/pprof handlers on their own mux and
// listener. The default-mux registration pprof does on import is not used:
// the service handler is a fresh ServeMux, so profiling endpoints exist
// only on -debug-addr, never on the query port.
func serveDebug(addr string) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	log.Printf("reprod: pprof debug server on %s", addr)
	if err := http.ListenAndServe(addr, mux); err != nil {
		log.Printf("reprod: debug server: %v", err)
	}
}

// bootstrap loads or builds the serving state and returns the graph name.
func bootstrap(s *serve.Server, art *snapshot.Artifact, graphIn, gen, name, snapPath string, tau int, seed uint64, algo string, lazy bool) (string, error) {
	// Warm path: a loaded snapshot carries graph (+ oracle) and metadata.
	if art != nil {
		if err := s.InstallSnapshot(art); err != nil {
			return "", err
		}
		withOracle := ""
		if art.Oracle != nil {
			withOracle = fmt.Sprintf(" + oracle (tau=%d seed=%d %s, %d clusters)",
				art.Meta.Tau, art.Meta.Seed, art.Meta.Algorithm, art.Oracle.NumClusters())
		}
		log.Printf("reprod: loaded snapshot %s: graph %q n=%d m=%d%s",
			snapPath, art.Meta.GraphName, art.Graph.NumNodes(), art.Graph.NumEdges(), withOracle)
		return art.Meta.GraphName, nil
	}

	// Cold path: load or generate the graph.
	var (
		g   *graph.Graph
		err error
	)
	// The log lines give n and m, not graph.Summarize: its component sweep
	// would add tens of milliseconds to every cold start.
	start := time.Now()
	switch {
	case graphIn != "":
		if g, err = graph.LoadEdgeList(graphIn); err != nil {
			return "", err
		}
		log.Printf("reprod: loaded %s in %v: n=%d m=%d", graphIn, time.Since(start).Round(time.Millisecond), g.NumNodes(), g.NumEdges())
		if name == "" {
			name = baseName(graphIn)
		}
	case gen != "":
		if g, err = graph.Generate(gen, 1); err != nil {
			return "", err
		}
		log.Printf("reprod: generated %s in %v: n=%d m=%d", gen, time.Since(start).Round(time.Millisecond), g.NumNodes(), g.NumEdges())
		if name == "" {
			name = gen[:strings.IndexByte(gen+":", ':')]
		}
	default:
		return "", errors.New("reprod: need -graph, -gen, or an existing -snapshot")
	}
	if err := s.RegisterGraph(name, g); err != nil {
		return "", err
	}
	if lazy {
		return name, nil
	}

	// Prebuild the default oracle so the first query is O(1), and persist
	// it if a snapshot path was given.
	start = time.Now()
	built, err := s.SnapshotArtifact(context.Background(), name, tau, seed, algo)
	if err != nil {
		return "", err
	}
	log.Printf("reprod: built oracle in %v (%d clusters, tau=%d)",
		time.Since(start).Round(time.Millisecond), built.Oracle.NumClusters(), built.Meta.Tau)
	if snapPath != "" {
		start = time.Now()
		if err := snapshot.Save(snapPath, built); err != nil {
			return "", err
		}
		log.Printf("reprod: wrote snapshot %s in %v", snapPath, time.Since(start).Round(time.Millisecond))
	}
	return name, nil
}

func baseName(path string) string {
	return strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
}

func portOf(addr string) string {
	if i := strings.LastIndexByte(addr, ':'); i >= 0 {
		return addr[i:]
	}
	return addr
}
