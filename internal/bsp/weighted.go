package bsp

import (
	"context"
	"errors"
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
// per-node claim word (casLower): in multi-source mode the word
// packs (distance, owner) so ties break toward the smaller cluster id, in
// single-source mode it is the raw distance. Each phase relaxes from a
// distance snapshot taken at the preceding barrier, so the offer multiset
// of a phase — and therefore every bucket, every final distance, and every
// owner — is independent of the goroutine schedule and bit-for-bit
// identical across worker counts.

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

// growDistMax bounds weighted distances in multi-source (owner-tracking)
// mode, where the claim word packs the distance into 31 bits above the
// 32-bit owner id. Exceeding it is reported as an error by ProcessBucket.
const growDistMax = int64(1)<<31 - 1

// ErrDistOverflow is returned when a multi-source growth accumulates a
// weighted distance beyond the 31 bits the packed claim word can hold.
var ErrDistOverflow = errors.New("bsp: weighted distance exceeds 2^31-1 in multi-source growth")

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

// WeightedEngine runs delta-stepping traversals over a weighted topology.
// It is reusable across runs (each SSSP or GrowInit resets the claim state,
// keeping the accumulated Stats and the worker pool) but is not safe for
// concurrent use. Close releases the pool.
type WeightedEngine struct {
	t       WeightedTopology
	n       int
	workers int
	delta   int64
	pool    *Pool

	// Claim state. shift is 32 in grow mode (word = dist<<32 | owner) and 0
	// in SSSP mode (word = dist); ownerMask selects the owner bits.
	slot      []uint64
	shift     uint
	ownerMask uint64
	distMax   int64
	overflow  atomic.Bool

	// Grow-mode settlement: a node counts as covered once the bucket
	// holding its final distance has been processed (sources settle at
	// AddSource). Tentative claims in unprocessed buckets are not settled.
	grow     bool
	settled  *Bitmap
	settledN int

	// Bucket schedule: pending bucket ids in a min-heap, members in a map
	// of lazily-filtered lists (a node lowered after insertion leaves a
	// stale entry behind; the pop filter drops it).
	buckets map[int64][]NodeID
	bheap   []int64
	free    [][]NodeID

	// ctx arms cooperative cancellation (SetContext); nil never cancels.
	ctx context.Context

	// obs, when non-nil, receives a Stats delta after every settled
	// bucket (SetObserver); nil costs one branch per bucket.
	obs Observer

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
		n:       n,
		workers: w,
		delta:   delta,
		pool:    NewPool(w),
		slot:    make([]uint64, n),
		settled: NewBitmap(n),
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

// SetObserver installs fn to receive a Stats delta at every bucket
// barrier — the weighted engine's per-bucket counterpart of
// Engine.SetObserver, emitting the bucket's relaxation phases
// (Rounds), offers (Messages/Relaxations), and Buckets: 1 after each
// settled bucket. The observer runs on the driving goroutine, outside
// the relaxation phases; it survives reset, covering multi-search
// computations. A nil fn (the default) disables observation at the cost
// of one branch per bucket.
func (e *WeightedEngine) SetObserver(fn Observer) { e.obs = fn }

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
func (e *WeightedEngine) reset(grow bool) {
	for i := range e.slot {
		e.slot[i] = unclaimed
	}
	e.grow = grow
	if grow {
		e.shift, e.ownerMask, e.distMax = 32, 1<<32-1, growDistMax
	} else {
		e.shift, e.ownerMask, e.distMax = 0, 0, WInf-1
	}
	e.settled.ClearAll()
	e.settledN = 0
	e.inR.ClearAll()
	e.updBits.ClearAll()
	e.overflow.Store(false)
	// The heap holds exactly the pending bucket ids, the map's keys: insert
	// pushes an id when it adds the key, and processBucket pops and
	// deletes together.
	for _, id := range e.bheap {
		e.free = append(e.free, e.buckets[id][:0])
		delete(e.buckets, id)
	}
	e.bheap = e.bheap[:0]
	e.rset = e.rset[:0]
	e.frontier = e.frontier[:0]
}

func (e *WeightedEngine) distOf(word uint64) int64 { return int64(word >> e.shift) }

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

// addSource claims u at distance zero for owner and queues it in bucket 0.
// Must not be called while a bucket is being processed.
func (e *WeightedEngine) addSource(u, owner NodeID) {
	e.slot[u] = uint64(owner) & e.ownerMask // dist 0 in the high bits
	e.insert(u, 0)
	if e.grow && !e.settled.Get(u) {
		e.settled.Set(u)
		e.settledN++
	}
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
	t, slot, shift, mask, distMax, updBits := e.t, e.slot, e.shift, e.ownerMask, e.distMax, e.updBits
	buf := e.updBufs[w]
	var scanned int64
	for i := lo; i < hi; i++ {
		du := int64(words[i] >> shift)
		base := words[i] & mask
		adj, ws := t.Neighbors(nodes[i])
		ws = ws[:len(adj)]
		scanned += int64(len(adj))
		for a, v := range adj {
			nd := du + int64(ws[a])
			if nd > distMax {
				e.overflow.Store(true)
				continue
			}
			if casLower(&slot[v], uint64(nd)<<shift|base) && updBits.SetAtomic(v) {
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
// node lowered at least once, exactly one entry) and the offer count. The
// arguments travel through the phase* fields and the prebuilt relax value
// rather than a per-call capture. Zero allocations once warm, pinned by
// TestRelaxPhaseZeroAlloc{Sequential,Parallel}.
func (e *WeightedEngine) relaxPhase(nodes []NodeID, words []uint64) (upd []NodeID, offers int64) {
	e.phaseNodes, e.phaseWords = nodes, words
	for w := range e.updBufs {
		e.updBufs[w] = e.updBufs[w][:0]
		e.offersW[w] = 0
	}
	e.pool.Claim(len(nodes), seqThreshold, e.relax)
	e.phaseNodes, e.phaseWords = nil, nil
	upd = e.upd[:0]
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
	return upd, offers
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

// processBucket settles the lowest pending bucket: repeated phases until
// no offer lands back in the bucket. Every node relaxes its whole adjacency
// at each word it is admitted with, its final word included, before the
// bucket closes; an offer made from an earlier, larger word is dominated
// by the same arc's offer from the final one, so each claim word after the
// bucket is what offering only from final words would leave. It reports
// whether any bucket held live work (stale entries are consumed either
// way). Slot reads here happen on the driving goroutine between relaxation
// phases, when the claim words are quiescent.
func (e *WeightedEngine) processBucket() bool {
	before := e.stats
	for len(e.bheap) > 0 {
		if e.Err() != nil {
			// Cancelled at a bucket barrier: leave the pending buckets
			// unconsumed and report no further work; ProcessBucket (and
			// Err) surface the cause, and the run's claim state is
			// discarded by the driver.
			return false
		}
		id := e.heapPop()
		list := e.buckets[id]
		delete(e.buckets, id)
		e.frontier = e.frontier[:0]
		e.fwords = e.fwords[:0]
		e.rset = e.rset[:0]
		for _, v := range list {
			word := e.slot[v]
			if word == unclaimed || int64(word>>e.shift)/e.delta != id || e.inR.Get(v) {
				continue // stale or duplicate entry
			}
			e.admit(v)
		}
		e.free = append(e.free, list[:0])
		if len(e.frontier) == 0 {
			e.inR.ClearSparse(e.rset)
			continue
		}
		// Relax until no claim lands back in this bucket (or the context
		// is cancelled at a phase barrier).
		for len(e.frontier) > 0 && e.Err() == nil {
			upd, _ := e.relaxPhase(e.frontier, e.fwords)
			e.frontier = e.frontier[:0]
			e.fwords = e.fwords[:0]
			for _, v := range upd {
				if d := e.distOf(e.slot[v]); d/e.delta == id {
					e.admit(v)
				} else {
					e.insert(v, d)
				}
			}
		}
		if e.Err() != nil {
			return false
		}
		if e.grow {
			for _, v := range e.rset {
				if !e.settled.Get(v) {
					e.settled.Set(v)
					e.settledN++
				}
			}
		}
		e.inR.ClearSparse(e.rset)
		e.stats.Buckets++
		if e.obs != nil {
			e.obs(Stats{
				Rounds:      e.stats.Rounds - before.Rounds,
				Messages:    e.stats.Messages - before.Messages,
				Relaxations: e.stats.Relaxations - before.Relaxations,
				Buckets:     1,
				MaxFrontier: e.stats.MaxFrontier,
			})
		}
		return true
	}
	return false
}

// SSSP computes single-source shortest-path distances from src into dist
// (len NumNodes; unreachable nodes get WInf) and returns the weighted
// eccentricity of src within its component. Distances are identical to
// Dijkstra's for every delta and worker count. If the engine's context is
// cancelled (SetContext) the search stops at the next bucket or phase
// barrier; the distances are then partial and Err reports the cause.
func (e *WeightedEngine) SSSP(src NodeID, dist []int64) int64 {
	e.reset(false)
	e.addSource(src, 0)
	for e.processBucket() {
	}
	var ecc int64
	for i := range dist {
		if w := e.slot[i]; w != unclaimed { // search complete, claim words final
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

// GrowInit starts a multi-source growth: claim words pack (distance, owner)
// and min-reduce lexicographically, so contended nodes resolve to the
// (smallest distance, smallest cluster id) claim — the weighted CLUSTER
// tie-break — independent of schedule. Sources are added with AddSource and
// buckets advanced with ProcessBucket; both may interleave, which is how
// the batch schedule staggers center activation.
func (e *WeightedEngine) GrowInit() { e.reset(true) }

// AddSource activates u as a source owning cluster `owner`: distance zero,
// settled immediately (a fresh center covers itself), queued in bucket 0.
// Must only be called between ProcessBucket calls. Adding a source at a
// node holding a tentative (unsettled) claim overrides that claim — a
// distance-zero word wins every min-reduction.
func (e *WeightedEngine) AddSource(u, owner NodeID) { e.addSource(u, owner) }

// ProcessBucket settles the lowest pending bucket. It reports whether any
// pending bucket held live work, and fails if a packed distance overflowed
// or the engine's context was cancelled (SetContext).
func (e *WeightedEngine) ProcessBucket() (bool, error) {
	ok := e.processBucket()
	if err := e.Err(); err != nil {
		return ok, err
	}
	if e.overflow.Load() {
		return ok, ErrDistOverflow
	}
	return ok, nil
}

// HasPending reports whether any bucket (possibly holding only stale
// entries) is still queued.
func (e *WeightedEngine) HasPending() bool { return len(e.bheap) > 0 }

// Settled reports whether u's claim has been settled (for sources, since
// AddSource). Tentative claims in unprocessed buckets do not count.
func (e *WeightedEngine) Settled(u NodeID) bool { return e.settled.Get(u) }

// SettledCount returns the number of settled nodes.
func (e *WeightedEngine) SettledCount() int { return e.settledN }

// Extract writes the settled claims into dist and owner (len NumNodes).
// Unsettled nodes get WInf and owner -1. Called between ProcessBucket
// calls, when the claim words are quiescent.
func (e *WeightedEngine) Extract(dist []int64, owner []NodeID) {
	for u := 0; u < e.n; u++ {
		if e.settled.Get(NodeID(u)) {
			word := e.slot[u]
			dist[u] = int64(word >> e.shift)
			owner[u] = NodeID(uint32(word & e.ownerMask))
		} else {
			dist[u] = WInf
			owner[u] = -1
		}
	}
}
