package bsp

import (
	"sync"
	"sync/atomic"
)

// Pool is the persistent worker pool under every parallel pass in the
// repository: a set of goroutines spawned once and fed one pass at a time,
// so a multi-round computation (BFS levels, MR rounds) pays the goroutine
// startup cost once rather than per round. Claim is its one loop: the workers take blocks of an index range from a
// shared cursor until none is left. The worker count sets how fast a pass
// runs, never which code runs it.
//
// Worker 0 is always the calling goroutine; the pool owns workers 1..w-1.
// The goroutines are started lazily, on the first Claim of more than one
// block, so a computation small enough to stay under the engines' inline
// thresholds never spawns them at all.
type Pool struct {
	workers int
	work    []chan struct{} // one per pool goroutine: a send starts a pass
	wg      sync.WaitGroup
	closed  bool

	// Claim's arguments, passed to the workers through these fields
	// instead of a capture, so a prebuilt fn allocates nothing.
	cursor             atomic.Int64 // next unclaimed index
	claimN, claimBlock int
	claimFn            func(worker, lo, hi int)

	// fault is the first panic a worker recovered from during a pass,
	// re-raised on the caller once every worker has stopped.
	faultMu sync.Mutex
	fault   any
}

// NewPool returns a pool with the given parallelism (non-positive selects
// GOMAXPROCS).
func NewPool(workers int) *Pool {
	return &Pool{workers: Workers(workers)}
}

// Claim runs fn(worker, lo, hi) over [0, n) in blocks of block indices
// (the last one shorter) that the workers take from a shared cursor until
// none is left, and waits: a worker may take several blocks, and one that
// wakes late costs the pass nothing, since the others take its blocks. No
// range is empty, and each index lies in exactly one. A one-worker pool, or
// a range of one block, runs fn(0, 0, n) on the caller. fn accumulates into
// its worker's scratch; which worker takes which block is up to the
// scheduler.
//
// A panic in fn, on any worker, ends that worker's part of the pass; the
// others drain the remaining blocks, and the first panic is re-raised on
// the caller after the barrier, with the pool still usable. Claim panics on
// a closed pool: respawning the goroutines there would leak them, since a
// second Close is a no-op.
func (p *Pool) Claim(n, block int, fn func(worker, lo, hi int)) {
	if p.closed {
		panic("bsp: Pool.Claim called after Close")
	}
	if n <= 0 {
		return
	}
	if p.workers == 1 || block >= n {
		fn(0, 0, n)
		return
	}
	p.claimN, p.claimBlock, p.claimFn = n, max(block, 1), fn
	p.cursor.Store(0)
	p.run()
	p.claimFn = nil
	if f := p.fault; f != nil {
		p.fault = nil
		panic(f)
	}
}

// run is Claim's dispatch: it runs the claim loop on every worker (0 = the
// caller) and waits for all of them.
func (p *Pool) run() {
	if p.work == nil {
		// Lazy spin-up: the first pass pays for the channels and goroutines
		// once; every later pass only sends on them.
		p.work = make([]chan struct{}, p.workers-1)
		for i := range p.work {
			ch := make(chan struct{})
			p.work[i] = ch
			go func(w int) {
				for range ch {
					p.claim(w)
					p.wg.Done()
				}
			}(i + 1)
		}
	}
	p.wg.Add(p.workers - 1)
	for _, ch := range p.work {
		ch <- struct{}{}
	}
	p.claim(0)
	p.wg.Wait()
}

// claim is Claim's worker loop: it takes the next block until none is
// left. A panic in fn ends the loop and is recovered into p.fault (the
// first one wins), so that a panic on a pool goroutine reaches the caller
// instead of ending the process, and one on the caller waits for the
// barrier.
func (p *Pool) claim(w int) {
	defer func() {
		if r := recover(); r != nil {
			p.faultMu.Lock()
			if p.fault == nil {
				p.fault = r
			}
			p.faultMu.Unlock()
		}
	}()
	for {
		hi := int(p.cursor.Add(int64(p.claimBlock)))
		lo := hi - p.claimBlock
		if lo >= p.claimN {
			return
		}
		p.claimFn(w, lo, min(hi, p.claimN))
	}
}

// Close stops the pool goroutines: idle between passes, they exit as soon
// as their channel closes, shortly after Close returns. Claim panics
// afterwards; a second Close is a no-op.
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
