// Package chaos is the fault-injection harness for internal/serve: a
// serve.FaultInjector implementation whose per-key (and per-kind) rules
// delay, block, fail, or panic detached artifact builds on demand. The
// soak tests in this package use it to drive a 1-worker server through
// the overload scenarios the admission control, load shedding, circuit
// breaker, and build-timeout machinery exist for — under -race, with
// goroutine- and slot-leak assertions.
//
// The harness is test-only by construction: serve knows nothing about
// this package (the dependency points here, via the FaultInjector
// interface), and production configurations leave Config.FaultInjector
// nil, which short-circuits the hook entirely.
package chaos

import (
	"context"
	"sync"
	"time"

	"repro/internal/serve"
)

// Rule is one injected fault, applied at the start of a matching build
// (after it acquires its build-pool slot, before the engines run). The
// stages apply in order: Delay, then Block, then Panic/Err, so a rule
// can e.g. hold a build for a controlled window and then fail it.
type Rule struct {
	// Delay sleeps before the build proceeds, honouring the build's
	// context (including any Config.BuildTimeout) — the knob for "this
	// build is slow", and for driving builds into the server-side
	// deadline.
	Delay time.Duration

	// Block, when non-nil, holds the build until the channel is closed
	// (or the build's context ends) — the knob for keeping a build-pool
	// slot provably occupied while the test probes the rest of the
	// server (slot starvation, shedding, fast-lane isolation).
	Block <-chan struct{}

	// Panic, when non-empty, panics with this value, exercising the
	// build's panic containment end to end.
	Panic string

	// Err, when non-nil, fails the build with this error — the knob for
	// poisoning a key until its circuit breaker trips.
	Err error
}

// Injector implements serve.FaultInjector with a mutable rule table:
// exact-key rules take precedence over per-kind rules, and keys with no
// rule build normally. It also counts build starts per key, so tests can
// assert how many times a poisoned or probed key actually reached the
// build phase. Safe for concurrent use by builds and the test body.
type Injector struct {
	mu     sync.Mutex
	keys   map[serve.Key]Rule
	kinds  map[string]Rule
	starts map[serve.Key]int
}

// New returns an Injector with no rules: every build passes through
// untouched until Set/SetKind installs a fault.
func New() *Injector {
	return &Injector{
		keys:   make(map[serve.Key]Rule),
		kinds:  make(map[string]Rule),
		starts: make(map[serve.Key]int),
	}
}

// Set installs (or replaces) the rule for one exact key.
func (i *Injector) Set(key serve.Key, r Rule) {
	i.mu.Lock()
	i.keys[key] = r
	i.mu.Unlock()
}

// SetKind installs (or replaces) the fallback rule for every key of a
// kind ("oracle", "diameter", ...) without an exact-key rule.
func (i *Injector) SetKind(kind string, r Rule) {
	i.mu.Lock()
	i.kinds[kind] = r
	i.mu.Unlock()
}

// Clear removes the exact-key rule for key, healing it.
func (i *Injector) Clear(key serve.Key) {
	i.mu.Lock()
	delete(i.keys, key)
	i.mu.Unlock()
}

// Starts reports how many builds of key reached the build phase.
func (i *Injector) Starts(key serve.Key) int {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.starts[key]
}

// BuildStarted is the serve.FaultInjector hook: it runs on the detached
// build goroutine under the build's context and applies the matching
// rule, if any.
func (i *Injector) BuildStarted(ctx context.Context, key serve.Key) error {
	i.mu.Lock()
	i.starts[key]++
	r, ok := i.keys[key]
	if !ok {
		r, ok = i.kinds[key.Kind]
	}
	i.mu.Unlock()
	if !ok {
		return nil
	}
	if r.Delay > 0 {
		t := time.NewTimer(r.Delay)
		defer t.Stop()
		select {
		case <-t.C:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	if r.Block != nil {
		select {
		case <-r.Block:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	if r.Panic != "" {
		panic(r.Panic)
	}
	return r.Err
}
