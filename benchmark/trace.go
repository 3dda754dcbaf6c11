package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"time"
)

// span is one timed call the benchmark made into a layer, or one of the
// benchmark's own phases. Spans are recorded from the benchmark's files,
// around the calls; the program itself is not instrumented.
type span struct {
	name   string
	start  time.Duration // since the tracer started
	end    time.Duration
	parent int // index of the enclosing span, -1 at the top
	iter   int // iteration within the enclosing window
}

// tracer keeps spans in memory. Only the goroutine that drives the run
// records spans, so it needs no lock. A nil tracer records nothing, which
// is how an untraced run is tracing-off.
type tracer struct {
	t0       time.Time
	workload string
	spans    []span
	open     []int // stack of spans not yet ended
}

func newTracer(workload string) *tracer {
	return &tracer{t0: time.Now(), workload: workload}
}

// begin opens a span under the innermost open one and returns its id.
func (t *tracer) begin(name string, iter int) int {
	if t == nil {
		return -1
	}
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	t.spans = append(t.spans, span{name: name, start: time.Since(t.t0), parent: parent, iter: iter})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

// end closes the span and any span opened inside it that is still open.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0)
	for len(t.open) > 0 {
		top := t.open[len(t.open)-1]
		t.open = t.open[:len(t.open)-1]
		t.spans[top].end = now
		if top == id {
			return
		}
	}
}

// selfSeconds returns, for every span, its duration minus the part of
// that interval its child spans cover.
func selfSeconds(spans []span) []float64 {
	type iv struct{ lo, hi time.Duration }
	children := make([][]iv, len(spans))
	for _, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], iv{s.start, s.end})
		}
	}
	self := make([]float64, len(spans))
	for i, s := range spans {
		ivs := children[i]
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		covered := time.Duration(0)
		at := s.start
		for _, c := range ivs {
			lo, hi := max(c.lo, at), min(c.hi, s.end)
			if hi > lo {
				covered += hi - lo
				at = hi
			}
		}
		self[i] = (s.end - s.start - covered).Seconds()
	}
	return self
}

// writeChrome writes the spans in the Chrome trace-event format
// (chrome://tracing, Perfetto): one complete ("X") event per span.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`  // microseconds
		Dur  float64        `json:"dur"` // microseconds
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	self := selfSeconds(t.spans)
	events := make([]event, len(t.spans))
	for i, s := range t.spans {
		events[i] = event{
			Name: s.name, Cat: layerOf(s.name), Ph: "X",
			Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			Pid: 1, Tid: 1,
			Args: map[string]any{"id": i, "parent": s.parent, "workload": t.workload, "iteration": s.iter, "self_us": self[i] * 1e6},
		}
	}
	b, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// layerOf is the part of a span or metric name before the first dot: the
// module the call went into.
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}
