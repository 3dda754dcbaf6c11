package bsp_test

// Goroutine lifetime of the one go site in this package: the pool's
// workers live from the first pooled Claim to Close. Counting goroutines
// back to the pre-test baseline is its only enforcer.

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bsp"
)

// settleToBaseline fails unless the goroutine count returns to base:
// Close only closes the workers' channels, so they exit shortly after it
// returns, not before.
func settleToBaseline(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, want the baseline %d: leaked", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestPoolSettlesToBaseline(t *testing.T) {
	base := runtime.NumGoroutine()
	const workers = 4

	p := bsp.NewPool(workers)
	var ran atomic.Int32
	for round := 0; round < 3; round++ {
		p.Claim(workers, 1, func(_, lo, hi int) { ran.Add(int32(hi - lo)) })
	}
	p.Close()
	p.Close() // idempotent
	settleToBaseline(t, base)
	if ran.Load() != 3*workers {
		t.Fatalf("fn covered %d indices, want %d", ran.Load(), 3*workers)
	}
}

// Claim after Close must not respawn the workers: the closed flag makes
// every later Close a no-op, so they would leak for good.
func TestPoolClaimAfterClosePanics(t *testing.T) {
	p := bsp.NewPool(2)
	p.Claim(2, 1, func(_, _, _ int) {})
	p.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("Claim on a closed pool did not panic")
		}
	}()
	p.Claim(2, 1, func(_, _, _ int) {})
}

// A panic on a pool goroutine would end the process: no recover on the
// caller's stack can reach it. Claim re-raises it on the caller, after
// the barrier, and the pool runs the next pass. Worker 0, the caller,
// holds its block until a pool worker has panicked, so the panic is
// always off the caller's goroutine.
func TestPoolWorkerPanicReachesCaller(t *testing.T) {
	base := runtime.NumGoroutine()
	p := bsp.NewPool(4)
	fired := make(chan struct{})
	var once sync.Once
	var drained atomic.Int32
	got := func() (r any) {
		defer func() { r = recover() }()
		p.Claim(64, 1, func(w, lo, hi int) {
			if w == 0 {
				<-fired
				drained.Add(int32(hi - lo))
				return
			}
			once.Do(func() { close(fired) })
			panic("worker panic")
		})
		return nil
	}()
	if got != "worker panic" {
		t.Fatalf("recovered %v, want the worker's panic", got)
	}
	if drained.Load() == 0 {
		t.Fatal("the caller ran no block")
	}
	var sum atomic.Int64
	p.Claim(1000, 7, func(_, lo, hi int) { sum.Add(int64(hi - lo)) })
	if sum.Load() != 1000 {
		t.Fatalf("the pass after a panic covered %d of 1000 indices", sum.Load())
	}
	p.Close()
	settleToBaseline(t, base)
}

// TestPoolClaim checks the one claim loop: every index of [0, n) lands in
// exactly one non-empty range, a one-worker pool or a range of one block
// stays on the caller, and a prebuilt fn costs no allocation.
func TestPoolClaim(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		p := bsp.NewPool(workers)
		for _, n := range []int{0, 1, 63, 64, 70_001} {
			for _, block := range []int{1, 7, 64, n, n + 1} {
				visits := make([]atomic.Int32, n)
				var empty, others atomic.Int32
				p.Claim(n, block, func(w, lo, hi int) {
					if lo >= hi {
						empty.Add(1)
					}
					if w != 0 {
						others.Add(1)
					}
					for i := lo; i < hi; i++ {
						visits[i].Add(1)
					}
				})
				for i := range visits {
					if c := visits[i].Load(); c != 1 {
						t.Fatalf("workers %d, n %d, block %d: index %d visited %d times", workers, n, block, i, c)
					}
				}
				if empty.Load() != 0 {
					t.Fatalf("workers %d, n %d, block %d: %d empty ranges", workers, n, block, empty.Load())
				}
				if (workers == 1 || block >= n) && others.Load() != 0 {
					t.Fatalf("workers %d, n %d, block %d: %d ranges ran off the caller", workers, n, block, others.Load())
				}
			}
		}
		p.Close()
	}

	p := bsp.NewPool(4)
	defer p.Close()
	var sum atomic.Int64
	fn := func(_, lo, hi int) { sum.Add(int64(hi - lo)) }
	p.Claim(70_001, 64, fn) // warm: goroutines and the claim loop built
	if allocs := testing.AllocsPerRun(20, func() { p.Claim(70_001, 64, fn) }); allocs != 0 {
		t.Fatalf("Claim with a prebuilt fn allocated %.1f times at workers 4, want 0", allocs)
	}
	if got := sum.Load(); got != 22*70_001 {
		t.Fatalf("Claim covered %d indices over 22 passes, want %d", got, 22*70_001)
	}
}
