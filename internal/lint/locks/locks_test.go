package locks_test

import (
	"testing"

	"repro/internal/lint/analysistest"
	"repro/internal/lint/locks"
)

func TestLocks(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), locks.Analyzer,
		"lockedtest", // *Locked call sites: held, bare, early-return, closure, receiver mismatch
		"lockbasic",  // AB/BA inversion, re-acquire, release semantics, closures, early returns; clean.go is silent
		"lockcross",  // cycle closed across packages via the Edges fact
	)
}
