package serve

// breaker.go is the per-key build circuit breaker: a negative cache for
// artifact keys whose builds keep failing. Builds are the expensive
// phase, so a poisoned key — bad parameters, a graph that trips a build
// invariant, an injected fault — must not be allowed to re-burn a build
// slot on every request. After BreakerThreshold consecutive failures the
// key OPENS: requests are refused instantly with 503 + Retry-After for
// an exponentially growing cooldown. When the cooldown expires the key
// goes HALF-OPEN: exactly one request is admitted as a probe build; if
// it succeeds the key closes (the entry is dropped entirely), if it
// fails the key re-opens with a doubled cooldown.
//
// Only terminal build failures count: failed, panicked, and timed-out
// builds. Cancellations (last waiter left, server draining) say nothing
// about the key's health, so they release a pending probe without
// counting against the key.

import (
	"fmt"
	"math"
	"sync"
	"time"
)

// Breaker state names, surfaced in error messages and tests.
const (
	breakerOpen     = "open"
	breakerHalfOpen = "half-open"
)

// BreakerOpenError is the fast rejection for a key whose breaker is
// open: the build is not attempted and the HTTP layer answers 503 with a
// Retry-After covering the remaining cooldown.
type BreakerOpenError struct {
	Key        Key
	State      string
	RetryAfter time.Duration
}

func (e *BreakerOpenError) Error() string {
	return fmt.Sprintf("serve: build circuit breaker %s for %v after repeated failures, retry in %s",
		e.State, e.Key, e.RetryAfter.Round(time.Second))
}

// breakerEntry is one key's failure record. Guarded by breaker.mu.
type breakerEntry struct {
	failures int           // consecutive terminal failures
	cooldown time.Duration // current open cooldown (doubles per re-trip)
	until    time.Time     // open until; zero before the first trip
	probing  bool          // a half-open probe build is in flight
	last     uint64        // breaker.seq at the latest failure
}

// breaker is the server-wide per-key breaker table. Entries exist only
// for keys with at least one recent failure, and successful builds
// delete them. A failed build's cache entry is removed, so the cache
// bound does not bound the failing keys: a client minting seeds mints
// entries. The table therefore has its own bound, maxKeys (MaxArtifacts):
// a failure that would add an entry past it first evicts one (evictLocked).
type breaker struct {
	mu          sync.Mutex
	threshold   int
	cooldown    time.Duration // base cooldown at the first trip
	maxCooldown time.Duration
	maxKeys     int
	seq         uint64 // failures recorded so far: the eviction clock
	keys        map[Key]*breakerEntry
}

func newBreaker(threshold int, cooldown time.Duration, maxKeys int) *breaker {
	if threshold <= 0 {
		threshold = 3
	}
	if cooldown <= 0 {
		cooldown = 2 * time.Second
	}
	return &breaker{
		threshold:   threshold,
		cooldown:    cooldown,
		maxCooldown: 5 * time.Minute,
		maxKeys:     maxKeys,
		keys:        make(map[Key]*breakerEntry),
	}
}

// allow gates the creation of a new build for key. It returns nil when
// the key is healthy (or under the failure threshold), grants a single
// probe when an open key's cooldown has expired (probe reports the
// grant, so the caller can count it), and otherwise returns a
// *BreakerOpenError carrying the remaining cooldown.
func (b *breaker) allow(key Key, now time.Time) (probe bool, err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	e, ok := b.keys[key]
	if !ok || e.failures < b.threshold {
		return false, nil
	}
	if e.probing {
		// Half-open with the probe still in flight: the probe's outcome
		// decides the key's fate; everyone else keeps getting the fast 503.
		return false, &BreakerOpenError{Key: key, State: breakerHalfOpen, RetryAfter: e.cooldown}
	}
	if now.Before(e.until) {
		return false, &BreakerOpenError{Key: key, State: breakerOpen, RetryAfter: e.until.Sub(now)}
	}
	// Cooldown expired: half-open. This caller becomes the probe.
	e.probing = true
	return true, nil
}

// failure records a terminal build failure for key and reports whether
// this failure tripped the breaker open (including re-opening after a
// failed probe), so the caller can count trips.
func (b *breaker) failure(key Key, now time.Time) (tripped bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	e, ok := b.keys[key]
	if !ok {
		if len(b.keys) >= b.maxKeys {
			b.evictLocked()
		}
		e = &breakerEntry{}
		b.keys[key] = e
	}
	b.seq++
	e.last = b.seq
	e.probing = false
	e.failures++
	if e.failures < b.threshold {
		return false
	}
	if e.until.IsZero() {
		e.cooldown = b.cooldown
	} else {
		e.cooldown = min(2*e.cooldown, b.maxCooldown)
	}
	e.until = now.Add(e.cooldown)
	return true
}

// evictLocked drops one entry to make room for a new key's: a closed one
// (under the threshold) rather than an open one, and of those the least
// recently failed. Failure sequence numbers are unique, so the choice is
// deterministic whatever the map order; the key being recorded is not in
// the table yet, so it is never the one evicted.
func (b *breaker) evictLocked() {
	var victim Key
	lowest := uint64(math.MaxUint64)
	for k, e := range b.keys {
		rank := e.last // an open entry ranks above every closed one
		if e.failures >= b.threshold {
			rank |= 1 << 63
		}
		if rank < lowest {
			victim, lowest = k, rank
		}
	}
	delete(b.keys, victim)
}

// success closes the breaker for key: one good build clears the record
// entirely (the next failure streak starts from zero).
func (b *breaker) success(key Key) {
	b.mu.Lock()
	delete(b.keys, key)
	b.mu.Unlock()
}

// cancelled releases a pending probe without counting the build either
// way: a cancellation says nothing about the key's health, and the next
// request after the (already expired) cooldown probes again.
func (b *breaker) cancelled(key Key) {
	b.mu.Lock()
	if e, ok := b.keys[key]; ok {
		e.probing = false
	}
	b.mu.Unlock()
}

// clearGraph drops every entry for a graph, called when RegisterGraph
// replaces its topology — the failures belonged to the old graph.
func (b *breaker) clearGraph(graphName string) {
	b.mu.Lock()
	for k := range b.keys {
		if k.Graph == graphName {
			delete(b.keys, k)
		}
	}
	b.mu.Unlock()
}

// openKeys counts keys at or past the failure threshold (open or
// half-open), feeding the reprod_breaker_open_keys gauge.
func (b *breaker) openKeys() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := 0
	for _, e := range b.keys {
		if e.failures >= b.threshold {
			n++
		}
	}
	return n
}
