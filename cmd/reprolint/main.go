// Command reprolint is the repository's analyzer suite as a vettool:
// five go/analysis-style checkers enforcing the determinism, atomics,
// *Locked-call, context and lock-order invariants — the ones no test can
// observe (see internal/lint) — plus the stale-suppression audit over
// //lint:allow annotations.
//
// Usage:
//
//	go vet -vettool=$(command -v reprolint) ./...   # the vet protocol
//	reprolint ./...                                 # convenience: re-execs go vet
//
// Individual analyzers toggle like vet checks: reprolint -determinism ./...
// runs only that one; -lockedsuffix=false excludes one from the suite.
// (Partial runs skip the suppression audit: an annotation can only be
// proven stale when its analyzer actually ran.)
//
// The lockorder analyzer's repo-wide lock graph is assembled here by
// construction: each unit's vetx fact file re-exports every edge it saw,
// so as the vet sweep walks the import DAG each package checks the union
// of its own acquisition edges and its entire dependency cone's, and a
// cross-package cycle is reported at the package that closes it.
//
// Exit codes, in both entry modes:
//
//	0  clean
//	1  internal analyzer error (crash, unreadable cfg, broken facts)
//	2  findings
//
// The direct mode distinguishes the two failure shapes by classifying
// the vet output: diagnostic lines are file:line[:col]: message, while
// internal errors surface as reprolint:/vet: lines. An internal error
// dominates findings — a crashed analyzer means the findings list is
// incomplete, and CI should treat it as a broken build, not a lint
// failure.
package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"regexp"
	"strings"

	"repro/internal/lint"
	"repro/internal/lint/unitchecker"
)

func main() {
	// Package-pattern operands mean the user invoked reprolint directly;
	// delegate to go vet with ourselves as the vettool so both entry
	// points share one driver. vet.cfg operands (and the -flags/-V probes,
	// which carry no operands) take the unitchecker path.
	var patterns []string
	for _, arg := range os.Args[1:] {
		if !strings.HasPrefix(arg, "-") && !strings.HasSuffix(arg, ".cfg") {
			patterns = append(patterns, arg)
		}
	}
	if len(patterns) > 0 {
		os.Exit(delegate())
	}
	unitchecker.AuditChecks = lint.KnownChecks()
	unitchecker.Main(lint.Analyzers()...)
}

func delegate() int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "reprolint: %v\n", err)
		return 1
	}
	args := append([]string{"vet", "-vettool=" + exe}, os.Args[1:]...)
	cmd := exec.Command("go", args...)
	var captured bytes.Buffer
	cmd.Stdout = os.Stdout
	cmd.Stderr = io.MultiWriter(os.Stderr, &captured)
	cmd.Stdin = os.Stdin
	underlying := 0
	if err := cmd.Run(); err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			underlying = ee.ExitCode()
		} else {
			fmt.Fprintf(os.Stderr, "reprolint: %v\n", err)
			return 1
		}
	}
	return classifyExit(captured.String(), underlying)
}

// diagLine matches a printed diagnostic: path.go:line[:col]: message.
var diagLine = regexp.MustCompile(`(?m)^\S*\.go:\d+(:\d+)?: `)

// errLine matches internal tool or vet driver errors.
var errLine = regexp.MustCompile(`(?m)^\s*(reprolint|vet|go: |panic)`)

// classifyExit maps a vet run's stderr and exit code onto reprolint's
// contract: 0 clean, 2 findings, 1 internal error (which dominates —
// a crashed analyzer means the findings list is incomplete).
func classifyExit(output string, underlying int) int {
	if underlying == 0 {
		return 0
	}
	if errLine.MatchString(output) {
		return 1
	}
	if diagLine.MatchString(output) {
		return 2
	}
	return 1
}
