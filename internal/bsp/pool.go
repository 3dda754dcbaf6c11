package bsp

import "sync"

// Pool is the persistent worker pool shared by the traversal engines: a set
// of goroutines spawned once and fed per-superstep closures, so a
// multi-round computation (BFS levels, delta-stepping buckets) pays the
// goroutine startup cost once rather than per round.
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
