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

// seqThreshold is the block of indices a worker claims at a time in For,
// a bottom-up step and a top-down step's barrier pass, so a range of at
// most one block runs inline on the calling goroutine: dispatching to the
// pool for tiny rounds costs more than it saves. It is a multiple of 64,
// 32 bitmap words, so the plain visited-bitmap writes of a pull block stay
// word-confined. Top-down steps are sized in arcs instead — see
// pushArcThreshold.
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
// every client states its round as the callback Step hands each claim to.
// Stats count the arcs the kernels scan in either direction, keeping
// Messages honest as the aggregate communication volume of the paper's
// Section 6 cost analysis; a client whose callback scans adjacency of its
// own (MPX, ANF) adds those arcs to the Messages it reports.
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
	// reaches it, the smallest frontier id that has offered so far while a
	// push round runs, parentSettled once the claim is handed to the
	// client (in a pull round's kernel, at a push round's barrier). A 32-bit
	// word on purpose: at 1 M nodes the array is 4 MB beside a 78 MB build.
	parent       []NodeID
	visited      *Bitmap // parent != parentFree, densely: what a pull round skips by the word
	frontier     []NodeID
	frontierBits *Bitmap // the frontier, densely: rebuilt by each pull round
	frontierArcs int64   // mf: sum of degrees over the current frontier
	unvisArcs    int64   // mu: sum of degrees over unvisited nodes
	unvisNodes   int64   // nu: number of unvisited nodes

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

	// Persistent pool: workers-1 goroutines woken once per claimed pass.
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

// Visited returns a read-only view of the visited set: the seeded nodes and
// every node a round has claimed since the last Reset. Between supersteps
// it is exact; it is read by the driver, never during a Step.
func (e *Engine) Visited() BitmapView { return BitmapView{e.visited} }

// setParent stores v's claim word plainly. Only the push kernel shares a
// word between goroutines, and it uses atomics throughout; every caller
// here is either the driver between rounds or the one worker that can
// reach v (pull blocks are disjoint, a claimed node is in the new frontier
// once), with the pool's barrier ordering it against the rounds around it.
func (e *Engine) setParent(v, p NodeID) { e.parent[v] = p }

// Reset clears the visited set and frontier for a fresh traversal over the
// same topology, keeping the pool and the accumulated Stats.
func (e *Engine) Reset() {
	for v := NodeID(0); int(v) < e.n; v++ {
		e.setParent(v, parentFree)
	}
	e.visited.ClearAll()
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

// For runs fn(worker, lo, hi) over [0, n) in blocks of seqThreshold
// indices that the workers claim (Pool.Claim), so a range of at most one
// block runs on the caller. Every block starts at a multiple of seqThreshold, a
// multiple of 64, so block-confined bitmap writes need no atomics. fn may
// run several times on one worker, and accumulates into its scratch.
func (e *Engine) For(n int, fn func(worker, lo, hi int)) {
	e.pool.Claim(n, seqThreshold, fn)
}

// chooseDirection applies the hybrid cost comparison (or the pinned mode)
// to the unvisited nodes, the ones that would scan for a frontier neighbor
// in a bottom-up round, and their arcs — right after a Reset, every node
// and all 2m arcs.
func (e *Engine) chooseDirection() Direction {
	if e.mode != DirAuto {
		return e.mode
	}
	if PullCheaper(int64(e.n), int64(len(e.frontier)), e.frontierArcs, e.unvisNodes, e.unvisArcs) {
		return DirPull
	}
	return DirPush
}

// PullCheaper is the hybrid cost comparison for one level of a traversal
// over n nodes whose frontier has nf nodes and mf arcs while nu nodes with
// mu arcs are unvisited: it reports whether a bottom-up level is estimated
// cheaper, min(nu·n/nf, mu) < mf. An empty frontier or nothing left to
// visit is a (trivial) top-down level.
func PullCheaper(n, nf, mf, nu, mu int64) bool {
	if nf == 0 || nu == 0 {
		return false
	}
	return min(nu*n/nf, mu) < mf // the product < 2^62 for n < 2^31
}

// Step performs one claim-style superstep in the chosen direction: every
// unclaimed node with a frontier neighbor is claimed, and the claimed nodes
// replace the frontier. A node reached by several frontier nodes goes to
// the one with the smallest id, in either direction and under any worker
// count or schedule (the paper lets "only one of them, arbitrarily chosen"
// succeed; fixing the choice is what makes every client's output a function
// of its inputs alone). A push round settles the contention by atomic-min
// on the node's parent word, a pull round by taking the first frontier
// neighbor in adjacency order, which is the same node because adjacency
// lists are sorted.
//
// adopt is called once per claim, with the winning frontier neighbor, as
// soon as the winner is final: inside a pull round's kernel, at a push
// round's barrier. The client copies whatever state a claimed node inherits
// (cluster and distance, BFS level). Calls for distinct nodes may run
// concurrently, and a call may read only state written before the round
// (parent's included); v is passed to exactly one call over the traversal
// (until Reset). A client whose rule is not the engine's may ignore the
// winner and read the pre-round state of all v's neighbors instead: MPX
// takes a min over (arrival, cluster) keys, ANF ORs the sketches.
//
// An empty frontier — or a cancelled context (see SetContext) — is a no-op
// returning a zero RoundStat.
func (e *Engine) Step(adopt func(worker int, v, parent NodeID)) RoundStat {
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
		arcs, claimedDeg = e.stepPull(adopt)
		e.stats.PullRounds++
	}
	next := e.gatherBufs()
	if dir == DirPush {
		// The CAS-min makes a winner final only here. A node is claimed
		// once per traversal, so marking it visited is O(n) plain ORs in
		// total where a mark per claim inside the round was a locked
		// instruction each; pull rounds mark as they go, word-confined.
		for _, v := range next {
			e.visited.Set(v)
		}
		e.claimBlocks(len(next), seqThreshold, func(w, lo, hi int) {
			for _, v := range next[lo:hi] {
				adopt(w, v, atomic.LoadInt32(&e.parent[v]))
				e.setParent(v, parentSettled)
			}
		})
	}
	e.frontier = next
	e.frontierArcs = claimedDeg
	e.unvisArcs -= claimedDeg
	e.unvisNodes -= int64(len(next))
	e.stats.Rounds++
	e.stats.Messages += arcs
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
		rs := e.Step(func(_ int, v, _ NodeID) { dist[v] = d })
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
		e.bufs[w] = e.bufs[w][:0]
		e.arcs[w], e.degs[w] = 0, 0
	}
	e.pool.Claim(n, block, scan)
}

// stepPull expands the frontier bottom-up: every unvisited node scans its
// adjacency and takes the first frontier member as its parent — the
// smallest, the list being sorted — so the worker that claims a node hands
// it to adopt there and then. The dense frontier is rebuilt first. The
// workers claim blocks of seqThreshold nodes (claimBlocks); each block
// starts at a multiple of 64, so visited-bitmap writes stay word-confined.
// The next frontier comes out in claim order, as a push round's does; the
// set claimed, every winner and the arcs scanned are the same at every
// worker count.
func (e *Engine) stepPull(adopt func(worker int, v, parent NodeID)) (arcs, claimedDeg int64) {
	e.frontierBits.FromSparse(e.frontier)
	xadj, adj := e.xadj, e.adj
	inFrontier := e.frontierBits
	visited := e.visited
	e.claimBlocks(e.n, seqThreshold, func(w, lo, hi int) {
		buf := e.bufs[w]
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
						adopt(w, v, u)
						e.setParent(v, parentSettled)
						visited.Set(v) // word-confined: blocks are 64-aligned
						buf = append(buf, v)
						deg += int64(len(nbrs))
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

func (e *Engine) sumScratch() (arcs, deg int64) {
	for w := 0; w < e.workers; w++ {
		arcs += e.arcs[w]
		deg += e.degs[w]
	}
	return arcs, deg
}
