// Package allow implements the //lint:allow annotation grammar shared by
// every reprolint analyzer, and the stale-suppression audit that keeps
// the annotations honest.
//
// Grammar, one annotation per comment:
//
//	//lint:allow <check> <justification>
//
// where <check> names the specific rule being waived: background
// (ctxflow), locked or lockorder (the two checks the locks analyzer's one
// walk feeds). The determinism checks take no waiver.
// An annotation applies to:
//
//   - every violation on the same source line as the comment, and
//   - every violation on the line immediately below a comment that stands
//     alone on its line (annotation-above style).
//
// The justification is mandatory: an annotation with no text after the
// check name is itself a finding. So is a stale annotation — one whose
// check never fires on the waived line. Every Allowed match is recorded
// in a process-wide registry; once the full suite has run over a package,
// Audit reports any annotation in it that no analyzer consumed, in the
// spirit of staticcheck's unused-suppression check. The
// registry spans analyzer instances (each builds its own Index over the
// same files), which is exactly what makes the audit sound: consumption
// by any analyzer counts.
package allow

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
	"sync"
)

const prefix = "//lint:allow"

// Annotation is one parsed //lint:allow comment.
type Annotation struct {
	File          string
	Line          int
	Check         string
	Justification string
}

type regKey struct {
	file  string
	line  int
	check string
}

// registry is the process-wide consumption ledger. Every package one test
// process loads shares it, which is harmless because keys carry absolute
// file paths.
var registry = struct {
	sync.Mutex
	consumed map[regKey]bool
}{consumed: make(map[regKey]bool)}

func consume(file string, line int, check string) {
	registry.Lock()
	registry.consumed[regKey{file, line, check}] = true
	registry.Unlock()
}

func wasConsumed(file string, line int, check string) bool {
	registry.Lock()
	defer registry.Unlock()
	return registry.consumed[regKey{file, line, check}]
}

// Index records, per source position, which checks are waived there.
type Index struct {
	fset  *token.FileSet
	lines map[regKey]*Annotation // (file, line, check) -> annotation
	anns  []*Annotation          // source order
}

// NewIndex scans the comments of the given files (which must belong to
// fset) and returns the annotation index.
func NewIndex(fset *token.FileSet, files []*ast.File) *Index {
	idx := &Index{fset: fset, lines: make(map[regKey]*Annotation)}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := c.Text
				if !strings.HasPrefix(text, prefix) {
					continue
				}
				rest := strings.TrimSpace(text[len(prefix):])
				fields := strings.Fields(rest)
				if len(fields) == 0 {
					continue
				}
				pos := fset.Position(c.Pos())
				ann := &Annotation{
					File:          pos.Filename,
					Line:          pos.Line,
					Check:         fields[0],
					Justification: strings.TrimSpace(strings.TrimPrefix(rest, fields[0])),
				}
				idx.lines[regKey{ann.File, ann.Line, ann.Check}] = ann
				idx.anns = append(idx.anns, ann)
			}
		}
	}
	return idx
}

// Allowed reports whether check is waived at pos: an annotation on the
// same line, or on the line immediately above. A match is recorded as
// consumption for the stale-suppression audit.
func (idx *Index) Allowed(pos token.Pos, check string) bool {
	p := idx.fset.Position(pos)
	for _, line := range [2]int{p.Line, p.Line - 1} {
		if ann := idx.lines[regKey{p.Filename, line, check}]; ann != nil {
			consume(ann.File, ann.Line, ann.Check)
			return true
		}
	}
	return false
}

// A Finding is one audit diagnostic against an annotation.
type Finding struct {
	File    string
	Line    int
	Message string
}

// Audit returns the stale-suppression findings for the given files: every
// //lint:allow annotation that names an unknown check, lacks a
// justification, or was never consumed by any analyzer this process ran.
// Call it only after the full analyzer suite has run over those files — a
// partial run would report annotations whose analyzer never ran.
// Annotations in _test.go files are audited for grammar (unknown check,
// missing justification) but not for staleness, because every analyzer
// exempts test files and the loader does not even hand them over.
func Audit(fset *token.FileSet, files []*ast.File, known map[string]bool) []Finding {
	idx := NewIndex(fset, files)
	var out []Finding
	for _, ann := range idx.anns {
		switch {
		case !known[ann.Check]:
			out = append(out, Finding{ann.File, ann.Line, fmt.Sprintf(
				"//lint:allow names unknown check %q", ann.Check)})
		case ann.Justification == "":
			out = append(out, Finding{ann.File, ann.Line, fmt.Sprintf(
				"//lint:allow %s has no justification; say why the exception is safe", ann.Check)})
		case strings.HasSuffix(ann.File, "_test.go"):
			// Grammar is fine; staleness is not audited in test files.
		case !wasConsumed(ann.File, ann.Line, ann.Check):
			out = append(out, Finding{ann.File, ann.Line, fmt.Sprintf(
				"stale suppression: //lint:allow %s waives nothing on this line; remove it", ann.Check)})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].File != out[j].File {
			return out[i].File < out[j].File
		}
		return out[i].Line < out[j].Line
	})
	return out
}

// ResetConsumptionForTest clears the process-wide consumption ledger so
// audit tests are order-independent.
func ResetConsumptionForTest() {
	registry.Lock()
	registry.consumed = make(map[regKey]bool)
	registry.Unlock()
}
