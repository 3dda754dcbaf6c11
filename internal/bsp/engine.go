package bsp

import (
	"context"
	"math/bits"
	"sync/atomic"
)

// Topology is the adjacency access the engine needs. *graph.Graph satisfies
// it; the interface (rather than a concrete graph type) keeps this package
// dependency-free so that internal/graph itself can run its exact-diameter
// searches on the engine.
type Topology interface {
	NumNodes() int
	NumArcs() int
	Degree(u NodeID) int
	Neighbors(u NodeID) []NodeID
}

// Direction selects how a superstep traverses the frontier boundary.
type Direction uint8

const (
	// DirAuto switches per round between push and pull on the standard
	// frontier-size heuristics (Beamer et al.'s direction-optimizing BFS).
	DirAuto Direction = iota
	// DirPush forces top-down: every frontier node scans its neighbors.
	DirPush
	// DirPull forces bottom-up: every unvisited node scans for a frontier
	// neighbor to adopt.
	DirPull
)

func (d Direction) String() string {
	switch d {
	case DirPush:
		return "push"
	case DirPull:
		return "pull"
	default:
		return "auto"
	}
}

// Direction switching follows a per-round cost comparison in the style of
// Beamer et al.'s direction-optimizing BFS, with the two sides estimated
// from schedule-independent quantities only (frontier size nf, frontier
// arcs mf, unvisited nodes nu, unvisited arcs mu):
//
//	push cost ≈ mf                     (every frontier arc is offered)
//	pull cost ≈ min(mu, nu·n/nf)       (each unvisited node probes its
//	                                    adjacency until it hits a frontier
//	                                    member — geometric with p = nf/n —
//	                                    but never past its full degree)
//
// The round runs bottom-up iff the pull estimate is cheaper. Because every
// input is independent of the goroutine schedule, the direction sequence —
// and therefore RoundLog — is identical across worker counts.

// seqThreshold is the range length (nodes, or candidates) below which
// For, ParallelFor and the pull and gather steps run inline on the calling
// goroutine; dispatching to the pool for tiny rounds costs more than it
// saves. Push steps are sized in arcs instead — see pushArcThreshold.
const seqThreshold = 2048

// pushArcThreshold is the frontier arc count (mf) below which a push step
// runs inline, and pushBlockArcs the arcs one claim of a pooled push step
// aims for. 6 k arcs is the 2,048-node rule this replaces on a road-like
// graph, whose frontiers carry 2.8 arcs a node: of the 150 push rounds of a
// CLUSTER run on the benchmark's road graph, 135 went to the pool by nodes
// and 134 go by arcs (139 at 4 k, 129 at 8 k, 101 at 16 k). What changes
// is the frontier of a thousand hubs: the round that claims half of the
// benchmark's social graph offers 1 M arcs from 1.2 k nodes and ran inline
// at every worker count. Dynamic blocks were measured against static
// per-worker bounds from a degree prefix of the frontier (growth at two
// workers, beside a sequential BFS of the same graph): road 2.5 against
// 2.8 sweeps, social 0.57–0.66 against 0.63–0.72 — and the prefix is one
// more sequential pass over the frontier.
const (
	pushArcThreshold = 6 << 10
	pushBlockArcs    = 4 << 10
)

// StepSpec is the two-sided superstep contract of a claim-style traversal.
//
// Push is the top-down form: for frontier node u and arc (u, v), return
// true iff this call claims v (the caller resolves write conflicts, e.g.
// with an atomic CAS on an ownership array; at most one call may return
// true for a given v over the whole traversal).
//
// Pull is the bottom-up form: unvisited node v found frontier neighbor u
// and asks to adopt it; return true iff v is now claimed. Each candidate v
// is owned by exactly one worker, and its frontier neighbors are offered in
// adjacency order, so Pull may use plain (non-atomic) writes to v's state
// and its outcome is deterministic — first-match adoption strengthens the
// schedule-independence of the push path rather than weakening it. A nil
// Pull pins the traversal to push.
//
// ExhaustivePull makes the engine offer every frontier neighbor of v
// instead of stopping at the first accepted adoption — for algorithms whose
// claim is a min-reduction over all in-round offers (MPX), where stopping
// early would break their determinism guarantee.
type StepSpec struct {
	Push           func(worker int, u, v NodeID) bool
	Pull           func(worker int, v, u NodeID) bool
	ExhaustivePull bool
}

// Engine is the direction-optimizing traversal engine under every frontier
// algorithm in the repository (CLUSTER/CLUSTER2 growth, MPX, parallel BFS,
// the ANF/HyperANF neighborhood rounds, and the iFUB exact-diameter loop).
//
// It keeps the frontier in both sparse (node list) and dense (bitmap) form,
// runs supersteps over a persistent worker pool (goroutines are spawned
// once per engine, not per superstep), and chooses per round between
// top-down push and bottom-up pull. Stats count arcs scanned in either
// direction, keeping Messages honest as the aggregate communication volume
// of the paper's Section 6 cost analysis.
//
// An Engine may be reused across traversals (Reset) but is not safe for
// concurrent use by multiple goroutines. Close releases the worker pool.
type Engine struct {
	t       Topology
	n       int
	arcsTot int64
	workers int
	mode    Direction

	visited      *Bitmap
	frontier     []NodeID
	frontierBits *Bitmap
	bitsFor      []NodeID     // sparse list frontierBits currently encodes
	frontierArcs int64        // mf: sum of degrees over the current frontier
	pushCursor   atomic.Int64 // next unclaimed frontier index of a push step
	unvisArcs    int64        // mu: sum of degrees over unvisited nodes
	unvisNodes   int64        // nu: number of unvisited nodes

	stats Stats
	log   []RoundStat

	// obs, when non-nil, receives a Stats delta after every executed
	// superstep (SetObserver); nil costs one branch per round.
	obs Observer

	// ctx arms cooperative cancellation (SetContext); nil never cancels.
	ctx context.Context

	// Per-worker scratch, reused across rounds.
	bufs     [][]NodeID
	arcs     []int64
	degs     []int64
	marks    []int64    // gatherPush per-worker marking-arc counters
	cand     []NodeID   // gatherPush concatenated candidate list
	candBits *Bitmap    // gatherPush scratch, allocated on first use
	candBufs [][]NodeID // gatherPush per-worker candidate lists

	// Persistent pool: workers-1 goroutines fed per-round closures.
	pool *Pool
}

// NewEngine returns an engine over t using the given number of workers
// (non-positive selects GOMAXPROCS). The pool goroutines are started
// lazily, on the first superstep large enough to parallelize.
func NewEngine(t Topology, workers int) *Engine {
	w := Workers(workers)
	n := t.NumNodes()
	e := &Engine{
		t:            t,
		n:            n,
		arcsTot:      int64(t.NumArcs()),
		workers:      w,
		pool:         NewPool(w),
		visited:      NewBitmap(n),
		frontierBits: NewBitmap(n),
		unvisArcs:    int64(t.NumArcs()),
		unvisNodes:   int64(n),
		bufs:         make([][]NodeID, w),
		arcs:         make([]int64, w),
		degs:         make([]int64, w),
	}
	return e
}

// NumWorkers returns the worker count.
func (e *Engine) NumWorkers() int { return e.workers }

// SetDirection pins the traversal direction (DirAuto restores the hybrid
// heuristic). Benchmarks use DirPush to measure the pure top-down baseline.
func (e *Engine) SetDirection(d Direction) { e.mode = d }

// SetContext arms cooperative cancellation: Step and GatherStep check ctx
// at the superstep barrier — never inside one — so a cancelled traversal
// stops within one round while an uncancelled run executes exactly the
// same deterministic round schedule as before. Once ctx is cancelled the
// engine drops its frontier, making every driver loop terminate, and Err
// reports the cause. A nil ctx (the default) never cancels. The context
// survives Reset, covering multi-traversal computations like iFUB.
func (e *Engine) SetContext(ctx context.Context) { e.ctx = ctx }

// SetObserver installs fn to receive a Stats delta at every superstep
// barrier (after the round's counters are committed), so a long traversal
// reports live progress instead of only post-hoc totals. The observer is
// invoked outside any engine lock, on the goroutine driving the
// traversal; it survives Reset, covering multi-traversal computations. A
// nil fn (the default) disables observation at the cost of one branch per
// round — the arc-scanning inner loops are untouched.
func (e *Engine) SetObserver(fn Observer) { e.obs = fn }

// observe emits one round's delta to the observer, if any.
func (e *Engine) observe(rs RoundStat, dir Direction) {
	if e.obs == nil {
		return
	}
	d := Stats{Rounds: 1, Messages: rs.Arcs, MaxFrontier: rs.Frontier}
	if dir == DirPull {
		d.PullRounds = 1
	}
	e.obs(d)
}

// Err returns the context error if SetContext armed cancellation and the
// context has been cancelled, else nil. Drivers check it after their
// superstep loops to distinguish a finished traversal from an abandoned
// one.
func (e *Engine) Err() error {
	if e.ctx == nil {
		return nil
	}
	return e.ctx.Err()
}

// Stats returns the accumulated cost counters. Reset does not clear them,
// so a multi-traversal computation (e.g. iFUB's many BFS runs) reads its
// aggregate cost here.
func (e *Engine) Stats() Stats { return e.stats }

// RoundLog returns one RoundStat per executed superstep, recording which
// direction each ran.
func (e *Engine) RoundLog() []RoundStat { return e.log }

// FrontierLen returns the size of the current frontier.
func (e *Engine) FrontierLen() int { return len(e.frontier) }

// Frontier returns the current sparse frontier. The slice is owned by the
// engine and valid until the next Step/GatherStep/Reset.
func (e *Engine) Frontier() []NodeID { return e.frontier }

// VisitedCount returns the number of nodes visited since the last Reset.
func (e *Engine) VisitedCount() int { return e.visited.Count() }

// Reset clears the visited set, frontier, and round log for a fresh
// traversal over the same topology, keeping the pool and the accumulated
// Stats. (The log must not outlive the traversal: multi-search users like
// iFUB run up to Θ(n) BFS on one engine, and an ever-growing trace would
// retain O(total rounds) memory nothing reads.)
func (e *Engine) Reset() {
	e.log = e.log[:0]
	e.visited.ClearAll()
	e.frontierBits.ClearAll()
	e.bitsFor = nil
	e.frontier = e.frontier[:0]
	e.frontierArcs = 0
	e.unvisArcs = e.arcsTot
	e.unvisNodes = int64(e.n)
}

// Seed marks u visited and adds it to the current frontier; it reports
// whether u was added (false if already visited). Claim-style traversals
// use it for roots and for centers activated between rounds.
func (e *Engine) Seed(u NodeID) bool {
	if e.visited.Get(u) {
		return false
	}
	e.visited.Set(u)
	e.frontier = append(e.frontier, u)
	d := int64(e.t.Degree(u))
	e.frontierArcs += d
	e.unvisArcs -= d
	e.unvisNodes--
	return true
}

// SetFrontier replaces the frontier with the given nodes without touching
// the visited set — the entry point for gather-style traversals (sketch
// rounds), where nodes re-enter the frontier every time their state
// changes.
func (e *Engine) SetFrontier(us []NodeID) {
	e.frontier = append(e.frontier[:0], us...)
	e.frontierArcs = 0
	for _, u := range us {
		e.frontierArcs += int64(e.t.Degree(u))
	}
}

// Close stops the pool goroutines. The engine must not be used afterwards.
func (e *Engine) Close() { e.pool.Close() }

// chunk64 returns the 64-aligned chunk size splitting n across the pool.
func (e *Engine) chunk64(n int) int {
	c := (n + e.workers - 1) / e.workers
	return (c + 63) &^ 63
}

// For splits [0, n) into contiguous chunks (64-aligned, so chunk-confined
// bitmap writes need no atomics) and runs fn(worker, lo, hi) on each from
// the persistent pool. Small n runs inline.
func (e *Engine) For(n int, fn func(worker, lo, hi int)) {
	if n <= 0 {
		return
	}
	if n < seqThreshold || e.workers == 1 {
		fn(0, 0, n)
		return
	}
	chunk := e.chunk64(n)
	e.pool.Run(func(w int) {
		lo := w * chunk
		if lo >= n {
			return
		}
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		fn(w, lo, hi)
	})
}

// chooseDirection applies the hybrid cost comparison (or the pinned mode).
// probers is the number of nodes that would scan for a frontier neighbor in
// a bottom-up round (nu for claim steps, n for gather steps) and arcCap the
// total arcs such a round could possibly touch (mu, respectively 2m).
func (e *Engine) chooseDirection(havePull bool, probers, arcCap int64) Direction {
	if !havePull {
		return DirPush
	}
	if e.mode != DirAuto {
		return e.mode
	}
	nf := int64(len(e.frontier))
	if nf == 0 || probers == 0 {
		return DirPush
	}
	pullCost := probers * int64(e.n) / nf // < 2^62 for n < 2^31
	if pullCost > arcCap {
		pullCost = arcCap
	}
	if pullCost < e.frontierArcs {
		return DirPull
	}
	return DirPush
}

// Step performs one claim-style superstep in the chosen direction, replaces
// the frontier with the newly claimed nodes, and returns the round record.
// An empty frontier — or a cancelled context (see SetContext) — is a no-op
// returning a zero RoundStat.
func (e *Engine) Step(spec StepSpec) RoundStat {
	if e.Err() != nil {
		e.frontier = e.frontier[:0]
		return RoundStat{}
	}
	nf := len(e.frontier)
	if nf == 0 {
		return RoundStat{}
	}
	if nf > e.stats.MaxFrontier {
		e.stats.MaxFrontier = nf
	}
	dir := e.chooseDirection(spec.Pull != nil, e.unvisNodes, e.unvisArcs)
	var arcs, claimedDeg int64
	if dir == DirPush {
		arcs, claimedDeg = e.stepPush(spec.Push)
	} else {
		arcs, claimedDeg = e.stepPull(spec)
	}
	next := e.gatherBufs()
	if dir == DirPush {
		// A node is claimed once per traversal, so this is O(n) plain ORs
		// in total where a mark per claim inside the round was a locked
		// instruction each; pull rounds mark as they go, word-confined.
		for _, v := range next {
			e.visited.Set(v)
		}
	}
	e.frontier = next
	e.frontierArcs = claimedDeg
	e.unvisArcs -= claimedDeg
	e.unvisNodes -= int64(len(next))
	e.stats.Rounds++
	e.stats.Messages += arcs
	if dir == DirPull {
		e.stats.PullRounds++
	}
	rs := RoundStat{Frontier: nf, Claimed: len(next), Arcs: arcs, Dir: dir}
	e.log = append(e.log, rs)
	e.observe(rs, dir)
	return rs
}

// BFS runs one breadth-first search from src on a freshly Reset engine:
// dist (len NumNodes) is overwritten with hop distances, -1 for unreached
// nodes, and the eccentricity of src within its component is returned.
// Push claims race through CAS; pull adoptions write plainly, since each
// candidate belongs to exactly one worker. If the engine's context is
// cancelled the search stops at the next barrier, dist is partial and Err
// reports the cause.
func (e *Engine) BFS(src NodeID, dist []int32) (ecc int32) {
	for i := range dist {
		dist[i] = -1
	}
	e.Reset()
	e.Seed(src)
	dist[src] = 0
	for d := int32(1); e.FrontierLen() > 0; d++ {
		rs := e.Step(StepSpec{
			// Test before the locked instruction: most scanned arcs lead
			// to a node that is already claimed.
			Push: func(_ int, _, v NodeID) bool {
				return atomic.LoadInt32(&dist[v]) == -1 && atomic.CompareAndSwapInt32(&dist[v], -1, d)
			},
			Pull: func(_ int, v, _ NodeID) bool {
				dist[v] = d
				return true
			},
		})
		if rs.Claimed > 0 {
			ecc = d
		}
	}
	return ecc
}

// gatherBufs concatenates the per-worker claim buffers, in worker order,
// into the engine's frontier slice (reusing its capacity).
func (e *Engine) gatherBufs() []NodeID {
	total := 0
	for w := 0; w < e.workers; w++ {
		total += len(e.bufs[w])
	}
	next := e.frontier[:0]
	if cap(next) < total {
		next = make([]NodeID, 0, total)
	}
	for w := 0; w < e.workers; w++ {
		next = append(next, e.bufs[w]...)
	}
	return next
}

// stepPush expands the frontier top-down: every frontier node offers its
// arcs to Push. The round is sized in arcs, as Beamer et al. size the
// top-down step (mf), not in frontier nodes: under pushArcThreshold arcs it
// runs on the caller; otherwise the workers claim blocks of frontier nodes
// from a shared cursor, each block about pushBlockArcs arcs at the
// frontier's mean degree, so a thousand hubs are spread over the pool and a
// hub-heavy stretch of the frontier delays one worker by one block. Which
// worker scans which block affects only the order of the next frontier;
// the set claimed and the arcs scanned are the same at every worker count.
// No push round reads the visited bitmap, so claims do not touch it here:
// Step marks the gathered claims at the barrier.
func (e *Engine) stepPush(push func(worker int, u, v NodeID) bool) (arcs, claimedDeg int64) {
	frontier := e.frontier
	t := e.t
	inline := e.workers == 1 || e.frontierArcs < pushArcThreshold
	block := len(frontier)
	if !inline {
		block = max(1, int(int64(len(frontier))*pushBlockArcs/e.frontierArcs))
	}
	e.pushCursor.Store(0)
	body := func(w int) {
		buf := e.bufs[w][:0]
		var scanned, deg int64
		for {
			hi := int(e.pushCursor.Add(int64(block)))
			lo := hi - block
			if lo >= len(frontier) {
				break
			}
			for _, u := range frontier[lo:min(hi, len(frontier))] {
				nbrs := t.Neighbors(u)
				scanned += int64(len(nbrs))
				for _, v := range nbrs {
					if push(w, u, v) {
						buf = append(buf, v)
						deg += int64(t.Degree(v))
					}
				}
			}
		}
		e.bufs[w] = buf
		e.arcs[w] = scanned
		e.degs[w] = deg
	}
	if inline {
		body(0)
		for w := 1; w < e.workers; w++ {
			e.idle(w)
		}
	} else {
		e.pool.Run(body)
	}
	return e.sumScratch()
}

// stepPull expands the frontier bottom-up: every unvisited node scans its
// adjacency for frontier members and adopts per spec.Pull. Worker chunks
// are 64-aligned so visited-bitmap writes stay word-confined and the next
// frontier comes out in ascending node order — fully deterministic.
//
//lint:allow plainatomic 64-aligned chunks: each worker owns its visited words exclusively
func (e *Engine) stepPull(spec StepSpec) (arcs, claimedDeg int64) {
	e.syncFrontierBits()
	t := e.t
	inFrontier := e.frontierBits
	visited := e.visited
	body := func(w, lo, hi int) {
		buf := e.bufs[w][:0]
		var scanned, deg int64
		for wi := lo >> 6; wi<<6 < hi; wi++ {
			unvis := ^visited.words[wi]
			base := NodeID(wi << 6)
			for m := unvis; m != 0; m &= m - 1 {
				v := base + NodeID(bits.TrailingZeros64(m))
				if int(v) >= hi { // hi is clamped to n, so this also skips pad bits
					break
				}
				nbrs := t.Neighbors(v)
				adopted := false
				for _, u := range nbrs {
					scanned++
					if !inFrontier.Get(u) {
						continue
					}
					if spec.Pull(w, v, u) {
						adopted = true
						if !spec.ExhaustivePull {
							break
						}
					}
				}
				if adopted {
					visited.Set(v) // word-confined: chunks are 64-aligned
					buf = append(buf, v)
					deg += int64(len(nbrs))
				}
			}
		}
		e.bufs[w] = buf
		e.arcs[w] = scanned
		e.degs[w] = deg
	}
	e.forChunks(e.n, true, body)
	return e.sumScratch()
}

// forChunks runs body over chunks of [0, n) — 64-aligned when aligned is
// set — clearing the scratch of idle workers. Small n runs inline.
func (e *Engine) forChunks(n int, aligned bool, body func(w, lo, hi int)) {
	if n < seqThreshold || e.workers == 1 {
		body(0, 0, n)
		for w := 1; w < e.workers; w++ {
			e.idle(w)
		}
		return
	}
	chunk := (n + e.workers - 1) / e.workers
	if aligned {
		chunk = (chunk + 63) &^ 63
	}
	e.pool.Run(func(w int) {
		lo := w * chunk
		if lo >= n {
			e.idle(w)
			return
		}
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		body(w, lo, hi)
	})
}

// idle clears the scratch of a worker that took no part in a round, so
// gatherBufs and sumScratch do not pick up what it did in an earlier one.
func (e *Engine) idle(w int) {
	e.bufs[w] = e.bufs[w][:0]
	e.arcs[w], e.degs[w] = 0, 0
}

func (e *Engine) sumScratch() (arcs, deg int64) {
	for w := 0; w < e.workers; w++ {
		arcs += e.arcs[w]
		deg += e.degs[w]
	}
	return arcs, deg
}

// syncFrontierBits brings the dense frontier in line with the sparse one.
func (e *Engine) syncFrontierBits() {
	e.frontierBits.FromSparse(e.frontier, e.bitsFor)
	e.bitsFor = append(e.bitsFor[:0], e.frontier...)
}

// GatherStep performs one gather-style superstep: the candidate set is
// every node with at least one neighbor in the current frontier, gather is
// invoked exactly once per candidate (from the worker that owns it), and
// candidates for which it returns true form the next frontier. The visited
// set is not consulted — nodes re-enter the frontier whenever they change —
// which is the superstep shape of the ANF/HADI and HyperANF sketch rounds
// (frontier = "nodes whose sketch changed last round").
//
// Direction: with a large frontier the candidates are found bottom-up (scan
// every node, stop at its first frontier neighbor); with a small one they
// are found top-down (mark neighbors of the frontier in a bitmap). Arcs
// counts the membership probes plus the full degree of every gathered
// candidate (the gather callback's own adjacency scan).
func (e *Engine) GatherStep(gather func(worker int, v NodeID) bool) RoundStat {
	if e.Err() != nil {
		e.frontier = e.frontier[:0]
		return RoundStat{}
	}
	nf := len(e.frontier)
	if nf == 0 {
		return RoundStat{}
	}
	if nf > e.stats.MaxFrontier {
		e.stats.MaxFrontier = nf
	}
	dir := e.chooseDirection(true, int64(e.n), e.arcsTot)
	var arcs, nextDeg int64
	if dir == DirPull {
		arcs, nextDeg = e.gatherPull(gather)
	} else {
		arcs, nextDeg = e.gatherPush(gather)
	}
	next := e.gatherBufs()
	e.frontier = next
	e.frontierArcs = nextDeg
	e.stats.Rounds++
	e.stats.Messages += arcs
	if dir == DirPull {
		e.stats.PullRounds++
	}
	rs := RoundStat{Frontier: nf, Claimed: len(next), Arcs: arcs, Dir: dir}
	e.log = append(e.log, rs)
	e.observe(rs, dir)
	return rs
}

// gatherPull finds candidates bottom-up: every node probes its adjacency
// for a frontier member, early-exiting on the first hit.
func (e *Engine) gatherPull(gather func(worker int, v NodeID) bool) (arcs, nextDeg int64) {
	e.syncFrontierBits()
	t := e.t
	inFrontier := e.frontierBits
	body := func(w, lo, hi int) {
		buf := e.bufs[w][:0]
		var scanned, deg int64
		for v := NodeID(lo); int(v) < hi; v++ {
			nbrs := t.Neighbors(v)
			hit := false
			for _, u := range nbrs {
				scanned++
				if inFrontier.Get(u) {
					hit = true
					break
				}
			}
			if !hit {
				continue
			}
			scanned += int64(len(nbrs)) // gather's own adjacency scan
			if gather(w, v) {
				buf = append(buf, v)
				deg += int64(len(nbrs))
			}
		}
		e.bufs[w] = buf
		e.arcs[w] = scanned
		e.degs[w] = deg
	}
	e.forChunks(e.n, false, body)
	return e.sumScratch()
}

// gatherPush finds candidates top-down: frontier nodes mark their neighbors
// in a reusable scratch bitmap (the first marker collects the candidate),
// then gather runs over the collected candidates.
func (e *Engine) gatherPush(gather func(worker int, v NodeID) bool) (arcs, nextDeg int64) {
	t := e.t
	frontier := e.frontier
	if e.candBits == nil {
		e.candBits = NewBitmap(e.n)
		e.candBufs = make([][]NodeID, e.workers)
		e.marks = make([]int64, e.workers)
	}
	cand := e.candBits
	for w := range e.candBufs {
		e.candBufs[w] = e.candBufs[w][:0]
		e.marks[w] = 0
	}
	e.For(len(frontier), func(w, lo, hi int) {
		local := e.candBufs[w][:0]
		var scanned int64
		for _, u := range frontier[lo:hi] {
			nbrs := t.Neighbors(u)
			scanned += int64(len(nbrs))
			for _, v := range nbrs {
				if cand.SetAtomic(v) {
					local = append(local, v)
				}
			}
		}
		e.candBufs[w] = local
		e.marks[w] = scanned
	})
	candidates := e.cand[:0]
	for _, b := range e.candBufs {
		candidates = append(candidates, b...)
	}
	e.cand = candidates
	cand.ClearSparse(candidates)
	body := func(w, lo, hi int) {
		buf := e.bufs[w][:0]
		var scanned, deg int64
		for _, v := range candidates[lo:hi] {
			d := int64(t.Degree(v))
			scanned += d
			if gather(w, v) {
				buf = append(buf, v)
				deg += d
			}
		}
		e.bufs[w] = buf
		e.arcs[w] = scanned
		e.degs[w] = deg
	}
	e.forChunks(len(candidates), false, body)
	arcs, nextDeg = e.sumScratch()
	for _, a := range e.marks {
		arcs += a
	}
	return arcs, nextDeg
}
