// Package lockedsuffix_test holds the *Locked call-site cases of the locks
// analyzer, run on their own: the analyzer and its testdata live in
// internal/lint/locks.
package lockedsuffix_test

import (
	"path/filepath"
	"testing"

	"repro/internal/lint/analysistest"
	"repro/internal/lint/locks"
)

func TestLockedSuffix(t *testing.T) {
	analysistest.Run(t, filepath.Join("..", "locks", "testdata"), locks.Analyzer, "lockedtest")
}
