package bsp

import (
	"sync"
	"sync/atomic"
)

// Pool is the persistent worker pool under every parallel pass in the
// repository: a set of goroutines spawned once and fed per-superstep
// closures, so a multi-round computation (BFS levels, delta-stepping
// buckets, MR rounds) pays the goroutine startup cost once rather than per
// round. Run hands every worker the same closure; Claim is the one claim
// loop, in which the workers take blocks of an index range from a shared
// cursor until none is left.
//
// Worker 0 is always the calling goroutine; the pool owns workers 1..w-1.
// The goroutines are started lazily, on the first Run, so a computation
// small enough to stay under the engines' inline thresholds never spawns
// them at all.
type Pool struct {
	workers int
	work    []chan func(worker int)
	wg      sync.WaitGroup
	closed  bool

	// Claim's arguments and its worker loop's method value, built on first
	// use: a Claim passes them through these fields instead of capturing
	// them, so a prebuilt fn allocates nothing.
	cursor             atomic.Int64 // next unclaimed index
	claimN, claimBlock int
	claimFn            func(worker, lo, hi int)
	claimLoop          func(worker int)
}

// NewPool returns a pool with the given parallelism (non-positive selects
// GOMAXPROCS).
func NewPool(workers int) *Pool {
	return &Pool{workers: Workers(workers)}
}

// Run executes fn(worker) on every worker (0 = the caller) and waits. It
// panics on a closed pool: respawning the goroutines there would leak
// them, since a second Close is a no-op.
func (p *Pool) Run(fn func(worker int)) {
	if p.closed {
		panic("bsp: Pool.Run called after Close")
	}
	if p.workers == 1 {
		fn(0)
		return
	}
	if p.work == nil {
		// Lazy spin-up: the first Run pays for the channels and goroutines
		// once; every later Run only sends on them.
		p.work = make([]chan func(worker int), p.workers-1)
		for i := range p.work {
			ch := make(chan func(worker int))
			p.work[i] = ch
			go func(w int, ch chan func(worker int)) {
				for f := range ch {
					f(w)
					p.wg.Done()
				}
			}(i+1, ch)
		}
	}
	p.wg.Add(p.workers - 1)
	for _, ch := range p.work {
		ch <- fn
	}
	fn(0)
	p.wg.Wait()
}

// Claim runs fn(worker, lo, hi) over [0, n) in blocks of block indices
// (the last one shorter) that the workers take from a shared cursor until
// none is left, and waits: a worker may take several blocks, and one that
// wakes late costs the pass nothing, since the others take its blocks. No
// range is empty, and each index lies in exactly one. A one-worker pool, or
// a range of one block, runs fn(0, 0, n) on the caller. fn accumulates into
// its worker's scratch; which worker takes which block is up to the
// scheduler.
func (p *Pool) Claim(n, block int, fn func(worker, lo, hi int)) {
	if n <= 0 {
		return
	}
	if p.workers == 1 || block >= n {
		fn(0, 0, n)
		return
	}
	if p.claimLoop == nil {
		p.claimLoop = p.claim
	}
	p.claimN, p.claimBlock, p.claimFn = n, max(block, 1), fn
	p.cursor.Store(0)
	p.Run(p.claimLoop)
	p.claimFn = nil
}

// claim is Claim's worker loop: it takes the next block until none is left.
func (p *Pool) claim(w int) {
	for {
		hi := int(p.cursor.Add(int64(p.claimBlock)))
		lo := hi - p.claimBlock
		if lo >= p.claimN {
			return
		}
		p.claimFn(w, lo, min(hi, p.claimN))
	}
}

// Close stops the pool goroutines: idle between Runs, they exit as soon as
// their channel closes, shortly after Close returns. Run panics afterwards;
// a second Close is a no-op.
func (p *Pool) Close() {
	if p.closed {
		return
	}
	p.closed = true
	for _, ch := range p.work {
		close(ch)
	}
	p.work = nil
}
