// Package lockorder_test holds the lock-order cases of the locks analyzer,
// run on their own: the analyzer and its testdata live in
// internal/lint/locks.
package lockorder_test

import (
	"path/filepath"
	"testing"

	"repro/internal/lint/analysistest"
	"repro/internal/lint/locks"
)

func TestLockorder(t *testing.T) {
	analysistest.Run(t, filepath.Join("..", "locks", "testdata"), locks.Analyzer,
		"lockbasic", // AB/BA inversion, re-acquire, release semantics, closures, early returns; clean.go is silent
		"lockcross", // cycle closed across packages via the Edges fact
	)
}
