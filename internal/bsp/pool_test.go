package bsp_test

// Goroutine lifetime of the one go site in this package: the pool's
// workers live from the first Run to Close. Counting goroutines back to
// the pre-test baseline is its only enforcer.

import (
	"runtime"
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
		p.Run(func(int) { ran.Add(1) })
	}
	p.Close()
	p.Close() // idempotent
	settleToBaseline(t, base)
	if ran.Load() != 3*workers {
		t.Fatalf("fn ran %d times, want %d", ran.Load(), 3*workers)
	}

}

// Run after Close used to respawn the workers, and the closed flag then
// made every later Close a no-op: they leaked for good.
func TestPoolRunAfterClosePanics(t *testing.T) {
	p := bsp.NewPool(2)
	p.Run(func(int) {})
	p.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("Run on a closed pool did not panic")
		}
	}()
	p.Run(func(int) {})
}
