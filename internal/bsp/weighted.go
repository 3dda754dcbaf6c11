package bsp

import (
	"context"
	"sync/atomic"
)

// Delta-stepping weighted traversal (Meyer & Sanders, J. Algorithms 2003 —
// the same Meyer whose quotient refinement the paper cites as [21]). Where
// Engine runs unit-step frontier supersteps, WeightedEngine runs a bucketed
// relaxation schedule: tentative distances are grouped into buckets of
// width delta, and the lowest bucket is settled by repeated relaxation
// phases, each offering the whole adjacency of the nodes the bucket
// admitted since the last phase, until no offer lands back in the bucket.
// Offers that land above it queue their targets in later buckets.
// Dijkstra's priority queue is the delta -> 0 limit; Bellman-Ford is
// delta -> infinity. In between, every phase is a bulk superstep over an
// arbitrary worker count — exactly the shape the rest of this repository's
// frontier algorithms run in.
//
// Meyer and Sanders also split each adjacency into light (weight <= delta)
// and heavy arcs and offer the heavy ones once per settled node, after its
// bucket closes. That saves offers only when a node is admitted to its
// bucket several times and its weights spread far past delta. On the
// benchmark's quotients it saved under 1 % of the offers at the price of a
// second adjacency and an extra phase per bucket, so the engine reads the
// topology's one adjacency in place.
//
// Determinism. All relaxations funnel through an atomic min-reduction on a
// per-node claim word (casLower) holding the raw tentative distance. Each
// phase relaxes from a distance snapshot taken at the preceding barrier, so
// the offer multiset of a phase — and therefore every bucket, every final
// distance and every cost counter — is independent of the goroutine
// schedule and bit-for-bit identical across worker counts.

// WeightedTopology is the adjacency access the weighted engine needs.
// *graph.Weighted satisfies it; as with Topology, the interface keeps this
// package free of a graph dependency.
type WeightedTopology interface {
	NumNodes() int
	Neighbors(u NodeID) ([]NodeID, []int32)
}

// WInf marks unreachable nodes in weighted distance arrays. It equals
// graph.InfDist.
const WInf int64 = 1 << 62

// unclaimed is the claim word of a node no relaxation has reached.
const unclaimed = ^uint64(0)

// distCap is the largest distance a claim word may hold: an offer beyond it
// would reach WInf and read as unreachable, so relaxChunk drops it.
const distCap = WInf - 1

// casLower atomically lowers *slot to val; it reports whether this call
// lowered the word (the min-reduction "claim" of the MPX idiom).
func casLower(slot *uint64, val uint64) bool {
	for {
		cur := atomic.LoadUint64(slot)
		if val >= cur {
			return false
		}
		if atomic.CompareAndSwapUint64(slot, cur, val) {
			return true
		}
	}
}

// WeightedEngine runs delta-stepping single-source searches over a weighted
// topology: weighted iFUB (graph.ExactDiameterWeighted) runs every search of
// one diameter on one engine. It is reusable across runs (each SSSP resets
// the claim state, keeping the accumulated Stats and the worker pool) but is
// not safe for concurrent use. Close releases the pool.
type WeightedEngine struct {
	t       WeightedTopology
	workers int
	delta   int64
	pool    *Pool

	// Claim state: one word per node, its tentative distance (unclaimed
	// until an offer reaches it).
	slot []uint64

	// Bucket schedule: pending bucket ids in a min-heap, members in a map
	// of lazily-filtered lists (a node lowered after insertion leaves a
	// stale entry behind; the pop filter drops it).
	buckets map[int64][]NodeID
	bheap   []int64
	free    [][]NodeID

	// ctx arms cooperative cancellation (SetContext); nil never cancels.
	ctx context.Context

	// Per-phase scratch.
	frontier []NodeID
	fwords   []uint64 // distance snapshot aligned with frontier
	rset     []NodeID // nodes settled by the bucket under processing
	inR      *Bitmap
	updBits  *Bitmap
	updBufs  [][]NodeID
	offersW  []int64
	upd      []NodeID // concatenated claim buffers of the last phase

	// relaxPhase parameter slots plus relaxChunk's method value, built at
	// construction: the hot relaxation loop passes its arguments through
	// these fields instead of capturing them, so a phase allocates no
	// closures (pinned by the TestRelaxPhaseZeroAlloc tests).
	phaseNodes []NodeID
	phaseWords []uint64
	relax      func(w, lo, hi int)

	stats Stats
}

// NewWeightedEngine returns a delta-stepping engine over t with the given
// parallelism (non-positive selects GOMAXPROCS). A non-positive delta picks
// the bucket width from the weight distribution: the mean arc weight. A
// wider bucket means fewer buckets but more offers from tentative words
// (toward Bellman-Ford's re-relaxation storms), a narrower one more
// buckets and barriers.
func NewWeightedEngine(t WeightedTopology, workers int, delta int64) *WeightedEngine {
	w := Workers(workers)
	n := t.NumNodes()
	if delta <= 0 {
		var sum, arcs int64
		for u := NodeID(0); int(u) < n; u++ {
			_, ws := t.Neighbors(u)
			for _, wt := range ws {
				sum += int64(wt)
			}
			arcs += int64(len(ws))
		}
		if arcs > 0 {
			delta = sum / arcs
		}
		if delta < 1 {
			delta = 1
		}
	}
	e := &WeightedEngine{
		t:       t,
		workers: w,
		delta:   delta,
		pool:    NewPool(w),
		slot:    make([]uint64, n),
		buckets: make(map[int64][]NodeID),
		inR:     NewBitmap(n),
		updBits: NewBitmap(n),
		updBufs: make([][]NodeID, w),
		offersW: make([]int64, w),
	}
	e.relax = e.relaxChunk
	return e
}

// Stats returns the accumulated cost counters; like Engine, resets between
// runs keep them so multi-search computations read their aggregate cost.
func (e *WeightedEngine) Stats() Stats { return e.stats }

// SetContext arms cooperative cancellation: bucket processing checks ctx
// at bucket and phase barriers — never inside a relaxation phase — so a
// cancelled run stops within one phase while an uncancelled run executes
// exactly the same deterministic bucket schedule. After cancellation the
// claim state is partial; Err reports the cause and drivers must discard
// the run. A nil ctx (the default) never cancels. The context survives
// reset, covering multi-search computations like the weighted iFUB.
func (e *WeightedEngine) SetContext(ctx context.Context) { e.ctx = ctx }

// Err returns the context error if SetContext armed cancellation and the
// context has been cancelled, else nil.
func (e *WeightedEngine) Err() error {
	if e.ctx == nil {
		return nil
	}
	return e.ctx.Err()
}

// Close stops the pool goroutines. The engine must not be used afterwards.
func (e *WeightedEngine) Close() { e.pool.Close() }

// reset clears the claim and bucket state for a fresh run. Runs on the
// driving goroutine between searches: workers are parked at the barrier.
func (e *WeightedEngine) reset() {
	for i := range e.slot {
		e.slot[i] = unclaimed
	}
	e.inR.ClearAll()
	e.updBits.ClearAll()
	// The heap holds exactly the pending bucket ids, the map's keys: insert
	// pushes an id when it adds the key, and drain pops and
	// deletes together.
	for _, id := range e.bheap {
		e.free = append(e.free, e.buckets[id][:0])
		delete(e.buckets, id)
	}
	e.bheap = e.bheap[:0]
	e.rset = e.rset[:0]
	e.frontier = e.frontier[:0]
}

// insert queues v into the bucket holding distance d.
func (e *WeightedEngine) insert(v NodeID, d int64) {
	id := d / e.delta
	b, ok := e.buckets[id]
	if !ok {
		if len(e.free) > 0 {
			b = e.free[len(e.free)-1]
			e.free = e.free[:len(e.free)-1]
		}
		e.heapPush(id)
	}
	e.buckets[id] = append(b, v)
}

func (e *WeightedEngine) heapPush(id int64) {
	h := append(e.bheap, id)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h[p] <= h[i] {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	e.bheap = h
}

func (e *WeightedEngine) heapPop() int64 {
	h := e.bheap
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		s := i
		if l < len(h) && h[l] < h[s] {
			s = l
		}
		if r < len(h) && h[r] < h[s] {
			s = r
		}
		if s == i {
			break
		}
		h[i], h[s] = h[s], h[i]
		i = s
	}
	e.bheap = h
	return top
}

// relaxChunk relaxes nodes [lo, hi) of the current phase (parameters in
// the phase* fields), appending to worker w's claim buffer and offer count:
// a worker may claim several chunks of one phase. It is the relaxation
// inner loop — a transitive callee of the hot relaxPhase, kept free of
// closures and allocation — and one kernel at every worker count: each
// offer is an atomic min-reduction (casLower), each first lowering of a
// phase an atomic bitmap mark.
func (e *WeightedEngine) relaxChunk(w, lo, hi int) {
	nodes, words := e.phaseNodes, e.phaseWords
	t, slot, updBits := e.t, e.slot, e.updBits
	buf := e.updBufs[w]
	var scanned int64
	for i := lo; i < hi; i++ {
		du := int64(words[i])
		adj, ws := t.Neighbors(nodes[i])
		ws = ws[:len(adj)]
		scanned += int64(len(adj))
		for a, v := range adj {
			nd := du + int64(ws[a])
			if nd > distCap {
				continue
			}
			if casLower(&slot[v], uint64(nd)) && updBits.SetAtomic(v) {
				buf = append(buf, v) // pooled: grows to its high-water mark, then reuses
			}
		}
	}
	e.updBufs[w] = buf
	e.offersW[w] += scanned
}

// relaxPhase offers dist+w along every arc of nodes, whose distance words
// are read from the aligned snapshot words. The workers claim the nodes in
// blocks of seqThreshold (Pool.Claim), so a phase under one block runs on
// the caller. It returns the per-worker claim buffers concatenated (each
// node lowered at least once, exactly one entry). The arguments travel
// through the phase* fields and the prebuilt relax value rather than a
// per-call capture. Zero allocations once warm, pinned by
// TestRelaxPhaseZeroAlloc{Sequential,Parallel}.
func (e *WeightedEngine) relaxPhase(nodes []NodeID, words []uint64) []NodeID {
	e.phaseNodes, e.phaseWords = nodes, words
	for w := range e.updBufs {
		e.updBufs[w] = e.updBufs[w][:0]
		e.offersW[w] = 0
	}
	e.pool.Claim(len(nodes), seqThreshold, e.relax)
	e.phaseNodes, e.phaseWords = nil, nil
	upd := e.upd[:0]
	var offers int64
	for w := 0; w < e.workers; w++ {
		upd = append(upd, e.updBufs[w]...) // pooled: grows to the high-water frontier, then reuses
		offers += e.offersW[w]
	}
	e.upd = upd
	e.updBits.ClearSparse(upd)
	if offers > 0 {
		e.stats.Rounds++
		e.stats.Messages += offers
		e.stats.Relaxations += offers
	}
	if len(nodes) > e.stats.MaxFrontier {
		e.stats.MaxFrontier = len(nodes)
	}
	return upd
}

// admit appends v to the current bucket's frontier (and settlement set R)
// with its now-stable distance word. It runs on the driving goroutine
// between relaxation phases, with no concurrent writers.
func (e *WeightedEngine) admit(v NodeID) {
	e.frontier = append(e.frontier, v)
	e.fwords = append(e.fwords, e.slot[v])
	if !e.inR.Get(v) {
		e.inR.Set(v)
		e.rset = append(e.rset, v)
	}
}

// drain settles the pending buckets, lowest first, each by repeated phases
// until no offer lands back in it. Every node relaxes its whole adjacency
// at each word it is admitted with, its final word included, before the
// bucket closes; an offer made from an earlier, larger word is dominated
// by the same arc's offer from the final one, so each claim word after the
// bucket is what offering only from final words would leave. A bucket
// holding only stale entries is consumed without a phase and not counted.
// Slot reads here happen on the driving goroutine between relaxation
// phases, when the claim words are quiescent. A cancelled context stops
// the drain at the next bucket or phase barrier, leaving the pending
// buckets unconsumed; Err surfaces the cause and the caller discards the
// run's claim state.
func (e *WeightedEngine) drain() {
	for len(e.bheap) > 0 && e.Err() == nil {
		id := e.heapPop()
		list := e.buckets[id]
		delete(e.buckets, id)
		e.frontier = e.frontier[:0]
		e.fwords = e.fwords[:0]
		e.rset = e.rset[:0]
		for _, v := range list {
			word := e.slot[v]
			if word == unclaimed || int64(word)/e.delta != id || e.inR.Get(v) {
				continue // stale or duplicate entry
			}
			e.admit(v)
		}
		e.free = append(e.free, list[:0])
		if len(e.frontier) == 0 {
			continue
		}
		// Relax until no claim lands back in this bucket (or the context
		// is cancelled at a phase barrier).
		for len(e.frontier) > 0 && e.Err() == nil {
			upd := e.relaxPhase(e.frontier, e.fwords)
			e.frontier = e.frontier[:0]
			e.fwords = e.fwords[:0]
			for _, v := range upd {
				if d := int64(e.slot[v]); d/e.delta == id {
					e.admit(v)
				} else {
					e.insert(v, d)
				}
			}
		}
		if e.Err() != nil {
			return
		}
		e.inR.ClearSparse(e.rset)
		e.stats.Buckets++
	}
}

// SSSP computes single-source shortest-path distances from src into dist
// (len NumNodes; unreachable nodes get WInf) and returns the weighted
// eccentricity of src within its component. Distances are identical to
// Dijkstra's for every delta and worker count. If the engine's context is
// cancelled (SetContext) the search stops at the next bucket or phase
// barrier; the distances are then partial and Err reports the cause.
func (e *WeightedEngine) SSSP(src NodeID, dist []int64) int64 {
	e.reset()
	e.slot[src] = 0
	e.insert(src, 0)
	e.drain()
	var ecc int64
	for i := range dist {
		if w := e.slot[i]; w != unclaimed { // drained, claim words final
			dist[i] = int64(w)
			if dist[i] > ecc {
				ecc = dist[i]
			}
		} else {
			dist[i] = WInf
		}
	}
	return ecc
}
