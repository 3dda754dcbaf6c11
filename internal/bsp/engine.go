package bsp

import (
	"context"
	"math"
	"math/bits"
	"sync/atomic"
)

// Topology is the adjacency the engine traverses: the offset array xadj
// (len n+1, or empty for the empty graph) and the concatenated adjacency
// lists adj (len 2m), each list strictly increasing. The engine's loops
// index the two arrays directly. *graph.Graph satisfies it; the interface
// (rather than a concrete graph type) keeps this package dependency-free so
// that internal/graph itself can run its exact-diameter searches on the
// engine.
type Topology interface {
	CSR() (xadj []int64, adj []NodeID)
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
// and with it every RoundStat a traversal returns or observes — is
// identical across worker counts.

// seqThreshold is the range length (nodes) below which For and with it
// the bottom-up steps run inline on the calling goroutine; dispatching to
// the pool for tiny rounds costs more than it saves. It is also the block
// of claimed nodes a worker takes at a time in a step's barrier pass.
// Top-down steps are sized in arcs instead — see pushArcThreshold.
const seqThreshold = 2048

// pushArcThreshold is the frontier arc count (mf) below which a push step
// runs inline, and pushBlockArcs the arcs each block a worker takes in a
// pooled push step aims for. 6 k arcs is the 2,048-node rule this replaces
// on a road-like graph, whose frontiers carry 2.8 arcs a node: of the 150
// push rounds of a CLUSTER run on the benchmark's road graph, 135 went to
// the pool by nodes and 134 go by arcs (139 at 4 k, 129 at 8 k, 101 at
// 16 k). What changes is the frontier of a thousand hubs: the round that
// claims half of the benchmark's social graph offers 1 M arcs from 1.2 k
// nodes and ran inline at every worker count. Dynamic blocks were measured
// against static per-worker bounds from a degree prefix of the frontier
// (growth at two workers, beside a sequential BFS of the same graph): road
// 2.5 against 2.8 sweeps, social 0.57–0.66 against 0.63–0.72 — and the
// prefix is one more sequential pass over the frontier.
const (
	pushArcThreshold = 6 << 10
	pushBlockArcs    = 4 << 10
)

// StepSpec is what a traversal supplies to a superstep. The claim itself is
// the engine's: a node reached by several frontier nodes in one round goes
// to the one with the smallest id, in either direction and under any worker
// count or schedule (the paper lets "only one of them, arbitrarily chosen"
// succeed; fixing the choice is what makes every client's output a function
// of its inputs alone). A push round settles the contention by atomic-min
// on the engine's parent word of the node, a pull round by adopting the
// first frontier neighbor in adjacency order, which is the same node
// because adjacency lists are sorted.
//
// Adopt is called at the barrier, once per node claimed in the round, with
// the winning frontier neighbor: the client copies whatever state a claimed
// node inherits (cluster and distance, BFS level). Calls for distinct nodes
// run concurrently; parent's state is stable, having been written at an
// earlier barrier, and v is passed to exactly one call over the traversal
// (until Reset). A client whose rule is not the engine's may ignore the
// winner and read the stable state of all v's neighbors instead: MPX takes
// a min over (arrival, cluster) keys, ANF ORs the sketches.
type StepSpec struct {
	Adopt func(worker int, v, parent NodeID)
}

// Values of a parent word outside a round's claims. Offers are node ids, so
// one comparison in the push kernel serves both: any offer lowers
// parentFree, none lowers parentSettled.
const (
	parentFree    NodeID = math.MaxInt32 // never reached
	parentSettled NodeID = -1            // claimed in an earlier round, or seeded
)

// Engine is the direction-optimizing traversal engine under every frontier
// algorithm in the repository (CLUSTER/CLUSTER2 growth, MPX, parallel BFS,
// the ANF neighborhood rounds, and the iFUB exact-diameter loop).
//
// It keeps the frontier in both sparse (node list) and dense (bitmap) form,
// runs supersteps over a persistent worker pool (goroutines are spawned
// once per engine, not per superstep), and chooses per round between
// top-down push and bottom-up pull. There is one kind of superstep, Step;
// every client states its round as an Adopt at the barrier. Stats count the
// arcs the kernels scan in either direction, keeping Messages honest as the
// aggregate communication volume of the paper's Section 6 cost analysis; a
// client whose Adopt scans adjacency of its own (MPX, ANF) adds those arcs
// to the Messages it reports.
//
// An Engine may be reused across traversals (Reset) but is not safe for
// concurrent use by multiple goroutines. Close releases the worker pool.
type Engine struct {
	xadj    []int64
	adj     []NodeID
	n       int
	arcsTot int64
	workers int
	mode    Direction

	// parent is the claim word of every node: parentFree until a round
	// reaches it, the smallest frontier id that has offered so far while
	// that round runs, parentSettled from the round's barrier on. A 32-bit
	// word on purpose: at 1 M nodes the array is 4 MB beside a 78 MB build.
	parent       []NodeID
	visited      *Bitmap // parent != parentFree, densely: what a pull round skips by the word
	frontier     []NodeID
	frontierBits *Bitmap
	bitsFor      []NodeID // sparse list frontierBits currently encodes
	frontierArcs int64    // mf: sum of degrees over the current frontier
	unvisArcs    int64    // mu: sum of degrees over unvisited nodes
	unvisNodes   int64    // nu: number of unvisited nodes

	stats Stats

	// obs, when non-nil, receives a Stats delta after every executed
	// superstep (SetObserver); nil costs one branch per round.
	obs Observer

	// ctx arms cooperative cancellation (SetContext); nil never cancels.
	ctx context.Context

	// Per-worker scratch, reused across rounds.
	bufs [][]NodeID
	arcs []int64
	degs []int64

	// Persistent pool: workers-1 goroutines fed per-round closures.
	pool *Pool
}

// NewEngine returns an engine over t using the given number of workers
// (non-positive selects GOMAXPROCS). The pool goroutines are started
// lazily, on the first superstep large enough to parallelize.
func NewEngine(t Topology, workers int) *Engine {
	w := Workers(workers)
	xadj, adj := t.CSR()
	n := max(len(xadj)-1, 0)
	e := &Engine{
		xadj:         xadj,
		adj:          adj,
		n:            n,
		arcsTot:      int64(len(adj)),
		workers:      w,
		pool:         NewPool(w),
		parent:       make([]NodeID, n),
		visited:      NewBitmap(n),
		frontierBits: NewBitmap(n),
		bufs:         make([][]NodeID, w),
		arcs:         make([]int64, w),
		degs:         make([]int64, w),
	}
	e.Reset() // every parent word free, every node and arc unvisited
	return e
}

// NumWorkers returns the worker count.
func (e *Engine) NumWorkers() int { return e.workers }

// SetDirection pins the traversal direction (DirAuto restores the hybrid
// heuristic). Benchmarks use DirPush to measure the pure top-down baseline.
func (e *Engine) SetDirection(d Direction) { e.mode = d }

// SetContext arms cooperative cancellation: Step checks ctx at the
// superstep barrier — never inside one — so a cancelled traversal
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
func (e *Engine) observe(rs RoundStat) {
	if e.obs == nil {
		return
	}
	d := Stats{Rounds: 1, Messages: rs.Arcs, MaxFrontier: rs.Frontier}
	if rs.Dir == DirPull {
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

// FrontierLen returns the size of the current frontier.
func (e *Engine) FrontierLen() int { return len(e.frontier) }

// Frontier returns the current sparse frontier. The slice is owned by the
// engine and valid until the next Step, Reset or SetFrontier.
func (e *Engine) Frontier() []NodeID { return e.frontier }

// VisitedCount returns the number of nodes visited since the last Reset.
func (e *Engine) VisitedCount() int { return e.visited.Count() }

// setParent stores v's claim word plainly. Only the push kernel shares a
// word between goroutines, and it uses atomics throughout; every caller
// here is either the driver between rounds or the one worker that can
// reach v (pull chunks are disjoint, a claimed node is in the new frontier
// once), with the pool's barrier ordering it against the rounds around it.
func (e *Engine) setParent(v, p NodeID) { e.parent[v] = p }

// Reset clears the visited set and frontier for a fresh traversal over the
// same topology, keeping the pool and the accumulated Stats.
func (e *Engine) Reset() {
	for v := NodeID(0); int(v) < e.n; v++ {
		e.setParent(v, parentFree)
	}
	e.visited.ClearAll()
	e.frontierBits.ClearAll()
	e.bitsFor = nil
	e.frontier = e.frontier[:0]
	e.frontierArcs = 0
	e.unvisArcs = e.arcsTot
	e.unvisNodes = int64(e.n)
}

// degree returns the number of arcs leaving u.
func (e *Engine) degree(u NodeID) int64 { return e.xadj[u+1] - e.xadj[u] }

// Seed marks u visited and adds it to the current frontier; it reports
// whether u was added (false if already visited). Claim-style traversals
// use it for roots and for centers activated between rounds.
func (e *Engine) Seed(u NodeID) bool {
	if e.visited.Get(u) {
		return false
	}
	e.visited.Set(u)
	e.setParent(u, parentSettled)
	e.frontier = append(e.frontier, u)
	d := e.degree(u)
	e.frontierArcs += d
	e.unvisArcs -= d
	e.unvisNodes--
	return true
}

// SetFrontier replaces the frontier with the given nodes without touching
// the visited set. After a Reset nothing is visited, so the next Step
// claims every node with a frontier neighbor, frontier nodes included: the
// superstep of the ANF sketch rounds, whose frontier is the nodes that
// changed last round.
func (e *Engine) SetFrontier(us []NodeID) {
	e.frontier = append(e.frontier[:0], us...)
	e.frontierArcs = 0
	for _, u := range us {
		e.frontierArcs += e.degree(u)
	}
}

// Close stops the pool goroutines. The engine must not be used afterwards.
func (e *Engine) Close() { e.pool.Close() }

// For splits [0, n) into contiguous chunks (64-aligned, so chunk-confined
// bitmap writes need no atomics) and runs fn(worker, lo, hi) on each from
// the persistent pool. Small n runs inline. The engine's bottom-up rounds
// run on it as well, which is why a worker left without a chunk has its
// scratch cleared.
func (e *Engine) For(n int, fn func(worker, lo, hi int)) {
	if n <= 0 {
		return
	}
	if n < seqThreshold || e.workers == 1 {
		fn(0, 0, n)
		for w := 1; w < e.workers; w++ {
			e.idle(w)
		}
		return
	}
	chunk := ((n+e.workers-1)/e.workers + 63) &^ 63
	e.pool.Run(func(w int) {
		if lo := w * chunk; lo < n {
			fn(w, lo, min(lo+chunk, n))
		} else {
			e.idle(w)
		}
	})
}

// chooseDirection applies the hybrid cost comparison (or the pinned mode)
// to the unvisited nodes, the ones that would scan for a frontier neighbor
// in a bottom-up round, and their arcs — right after a Reset, every node
// and all 2m arcs.
func (e *Engine) chooseDirection() Direction {
	if e.mode != DirAuto {
		return e.mode
	}
	nf := int64(len(e.frontier))
	if nf == 0 || e.unvisNodes == 0 {
		return DirPush
	}
	pullCost := min(e.unvisNodes*int64(e.n)/nf, e.unvisArcs) // the product < 2^62 for n < 2^31
	if pullCost < e.frontierArcs {
		return DirPull
	}
	return DirPush
}

// Step performs one claim-style superstep in the chosen direction: every
// unclaimed node with a frontier neighbor is claimed by the smallest of
// them (see StepSpec), the barrier hands each claim to spec.Adopt, and the
// claimed nodes replace the frontier. An empty frontier — or a cancelled
// context (see SetContext) — is a no-op returning a zero RoundStat.
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
	dir := e.chooseDirection()
	var arcs, claimedDeg int64
	if dir == DirPush {
		arcs, claimedDeg = e.stepPush()
	} else {
		arcs, claimedDeg = e.stepPull()
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
	e.settle(next, spec.Adopt)
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
	e.observe(rs)
	return rs
}

// BFS runs one breadth-first search from src on a freshly Reset engine:
// dist (len NumNodes) is overwritten with hop distances, -1 for unreached
// nodes, and the eccentricity of src within its component is returned. If
// the engine's context is cancelled the search stops at the next barrier,
// dist is partial and Err reports the cause.
func (e *Engine) BFS(src NodeID, dist []int32) (ecc int32) {
	for i := range dist {
		dist[i] = -1
	}
	e.Reset()
	e.Seed(src)
	dist[src] = 0
	for d := int32(1); e.FrontierLen() > 0; d++ {
		rs := e.Step(StepSpec{Adopt: func(_ int, v, _ NodeID) { dist[v] = d }})
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

// stepPush expands the frontier top-down: every frontier node u offers its
// id to each neighbor's parent word, which keeps the minimum. The worker
// whose CAS moves a word off parentFree gathers the node, so each is
// gathered once however many smaller ids follow; a word that is
// parentSettled fails the same comparison, so an arc into an already
// claimed node costs one load. The round is sized in arcs, as Beamer et al.
// size the top-down step (mf), not in frontier nodes: under
// pushArcThreshold arcs it is one block, on the caller; otherwise the
// workers claim blocks of frontier nodes (claimBlocks), each about
// pushBlockArcs arcs at the frontier's mean degree, so a thousand hubs are
// spread over the pool and a hub-heavy stretch of the frontier delays one
// worker by one block. Which worker scans which block affects only the
// order of the next frontier; the set claimed, every winner and the arcs
// scanned are the same at every worker count.
func (e *Engine) stepPush() (arcs, claimedDeg int64) {
	frontier, xadj, adj, parent := e.frontier, e.xadj, e.adj, e.parent
	e.claimBlocks(len(frontier), e.pushBlock(), func(w, lo, hi int) {
		buf := e.bufs[w]
		var scanned, deg int64
		for _, u := range frontier[lo:hi] {
			nbrs := adj[xadj[u]:xadj[u+1]]
			scanned += int64(len(nbrs))
			for _, v := range nbrs {
				word := &parent[v]
				for cur := atomic.LoadInt32(word); u < cur; cur = atomic.LoadInt32(word) {
					if atomic.CompareAndSwapInt32(word, cur, u) {
						if cur == parentFree {
							buf = append(buf, v)
							deg += xadj[v+1] - xadj[v]
						}
						break
					}
				}
			}
		}
		e.bufs[w] = buf
		e.arcs[w] += scanned
		e.degs[w] += deg
	})
	return e.sumScratch()
}

// pushBlock is the number of frontier nodes one claim of a push round takes:
// all of them under pushArcThreshold arcs, else about pushBlockArcs arcs'
// worth at the frontier's mean degree.
func (e *Engine) pushBlock() int {
	if e.frontierArcs < pushArcThreshold {
		return len(e.frontier)
	}
	return max(1, int(int64(len(e.frontier))*pushBlockArcs/e.frontierArcs))
}

// claimBlocks clears the per-worker scratch and runs scan over [0, n) in
// blocks the workers claim (Pool.Claim). scan accumulates into its worker's
// scratch.
func (e *Engine) claimBlocks(n, block int, scan func(w, lo, hi int)) {
	for w := 0; w < e.workers; w++ {
		e.idle(w)
	}
	e.pool.Claim(n, block, scan)
}

// stepPull expands the frontier bottom-up: every unvisited node scans its
// adjacency and takes the first frontier member as its parent — the
// smallest, the list being sorted. Worker chunks are 64-aligned so
// visited-bitmap writes stay word-confined and the next frontier comes out
// in ascending node order.
func (e *Engine) stepPull() (arcs, claimedDeg int64) {
	e.syncFrontierBits()
	xadj, adj := e.xadj, e.adj
	inFrontier := e.frontierBits
	visited := e.visited
	e.For(e.n, func(w, lo, hi int) {
		buf := e.bufs[w][:0]
		var scanned, deg int64
		for wi := lo >> 6; wi<<6 < hi; wi++ {
			base := NodeID(wi << 6)
			for m := visited.Absent(wi); m != 0; m &= m - 1 {
				v := base + NodeID(bits.TrailingZeros64(m))
				if int(v) >= hi { // hi is clamped to n, so this also skips pad bits
					break
				}
				nbrs := adj[xadj[v]:xadj[v+1]]
				for _, u := range nbrs {
					scanned++
					if inFrontier.Get(u) {
						e.setParent(v, u)
						visited.Set(v) // word-confined: chunks are 64-aligned
						buf = append(buf, v)
						deg += int64(len(nbrs))
						break
					}
				}
			}
		}
		e.bufs[w] = buf
		e.arcs[w] = scanned
		e.degs[w] = deg
	})
	return e.sumScratch()
}

// settle is the barrier pass of a claim step: for every node the round
// claimed it reports the winner to adopt and closes the parent word to
// later offers.
func (e *Engine) settle(claimed []NodeID, adopt func(worker int, v, parent NodeID)) {
	e.claimBlocks(len(claimed), seqThreshold, func(w, lo, hi int) {
		for _, v := range claimed[lo:hi] {
			adopt(w, v, atomic.LoadInt32(&e.parent[v]))
			e.setParent(v, parentSettled)
		}
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
