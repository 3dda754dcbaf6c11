// Package lockdep contributes one half of a cross-package lock cycle:
// its Sync takes the cache lock, then the journal lock. The edge travels
// to dependents as the locks.Edges fact.
package lockdep

import "sync"

var (
	CacheMu   sync.Mutex
	JournalMu sync.Mutex
)

// Sync flushes under cache -> journal order.
func Sync() {
	CacheMu.Lock()
	defer CacheMu.Unlock()
	JournalMu.Lock()
	defer JournalMu.Unlock()
}
