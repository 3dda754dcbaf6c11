// Package lint is reprolint: a go/analysis-style suite that machine-
// enforces the repository's reproducibility and concurrency conventions.
// Until this package existed those conventions were enforced by code
// review and spot tests only; a single map range in a reducer or a lock
// taken out of order silently voids guarantees the acceptance tests
// depend on.
//
// The three analyzers each guard an invariant no test can see, because the
// violation changes no output on the machine that runs the suite:
//
//	determinism   engine packages (bsp, mr, core, mpx, anf, graph, pbfs)
//	              must not range over maps, use math/rand, or read
//	              time.Now, with no waiver (bit-for-bit determinism). A
//	              map range that leaks order fails only on some runs.
//	ctxflow       no context.Background/TODO in internal non-test code;
//	              exported superstep-looping free functions must accept
//	              a context.Context (cancellation contract). A dropped
//	              context still computes the right answer.
//	locks         one held-mutex walk per function body and per function
//	              literal feeds two checks. Functions named *Locked may
//	              only be called with the guarding mutex held (serve's
//	              cache convention): -race sees a bare call only where a
//	              test drives that call site concurrently (two of four
//	              seeded bare calls escaped it). And per-package
//	              mutex-acquisition edges are exported as facts whose
//	              union, the repo-wide lock graph, must be acyclic; a
//	              cycle is a potential deadlock that needs one particular
//	              interleaving to fire.
//
// Invariants a test pins exactly have no analyzer: zero-allocation hot
// paths (the AllocsPerRun ZeroAlloc tests), goroutine lifetime (the
// settle-to-baseline tests in bsp, core and serve/chaos), the metric
// surface (serve's TestMetricsExpositionWellFormed) and ordered access to
// the engines' claim words (the race job, whose worker-count >= 2 tests
// drive every concurrent phase of bsp). See the README's "Correctness
// tooling" table.
//
// Violations that are deliberate carry a //lint:allow annotation (see
// internal/lint/allow for the grammar); the annotation forces the
// justification to live next to the exception, and the justification is
// mandatory. Suppressions are themselves audited: once the suite has run
// over a package, any //lint:allow in it whose check never fired on its
// line is reported as stale (internal/lint/allow.Audit), so waived
// exceptions cannot outlive the code that needed them.
//
// Enforcement is tier-1: TestRepo in this package loads every package of
// the module from source with analysistest.Loader (the same loader the
// analyzers' testdata suites use), runs Analyzers and then the audit over
// each, and fails with one file:line:col: message line per finding, so
//
//	go test ./...
//
// holds every change to the invariants; go test ./internal/lint -run
// 'TestRepo/internal/serve$' shows one package's findings. The framework
// underneath (internal/lint/analysis, .../analysistest) is a stdlib-only
// re-implementation of the x/tools go/analysis core, because this
// repository vendors nothing.
package lint

import (
	"repro/internal/lint/analysis"
	"repro/internal/lint/ctxflow"
	"repro/internal/lint/determinism"
	"repro/internal/lint/locks"
)

// Analyzers returns the full reprolint suite in deterministic order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		ctxflow.Analyzer,
		determinism.Analyzer,
		locks.Analyzer,
	}
}

// KnownChecks lists every //lint:allow check name the suite consumes;
// the allow.Audit stale-suppression sweep keys off it.
func KnownChecks() map[string]bool {
	return map[string]bool{
		"locked":     true, // locks
		"background": true, // ctxflow
		"lockorder":  true, // locks
	}
}
