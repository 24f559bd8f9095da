package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// span is one timed call into a layer, made from the benchmark's own
// code. Spans nest: Parent is the span open when this one began (0 for
// none). Spans of one request or one round share Trace.
type span struct {
	ID     int
	Parent int
	Trace  int
	Name   string // "<layer>.<call>"
	Start  time.Duration
	End    time.Duration
	// Async spans (rounds running inside the engine) overlap the
	// synchronous spans instead of nesting; self time skips them.
	Async bool
}

// tracer keeps spans in memory until the run ends. It is used from one
// goroutine. A nil *tracer records nothing, which is how untraced
// passes run.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int // indices into spans of the spans not yet ended
	trace int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newTrace starts a new request or round: later spans share its id.
func (t *tracer) newTrace() {
	if t != nil {
		t.trace++
	}
}

// begin opens a span and returns the handle end takes.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.spans[t.open[n-1]].ID
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Trace: t.trace, Name: name, Start: time.Since(t.t0)})
	t.open = append(t.open, len(t.spans)-1)
	return len(t.spans) - 1
}

// end closes the span begin returned, and any span opened inside it
// that is still open.
func (t *tracer) end(h int) {
	if t == nil || h < 0 {
		return
	}
	now := time.Since(t.t0)
	for len(t.open) > 0 {
		i := t.open[len(t.open)-1]
		t.open = t.open[:len(t.open)-1]
		t.spans[i].End = now
		if i == h {
			return
		}
	}
}

// async opens a span that other spans do not nest in; finish closes it.
func (t *tracer) async(name string) int {
	if t == nil {
		return -1
	}
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.spans[t.open[n-1]].ID
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Trace: t.trace, Name: name, Start: time.Since(t.t0), Async: true})
	return len(t.spans) - 1
}

func (t *tracer) finish(h int) {
	if t != nil && h >= 0 {
		t.spans[h].End = time.Since(t.t0)
	}
}

// do runs f inside a span.
func (t *tracer) do(name string, f func() error) error {
	h := t.begin(name)
	defer t.end(h)
	return f()
}

// selfTime sums, per layer, each span's duration minus the time its
// direct children cover.
func (t *tracer) selfTime() map[string]float64 {
	child := make([]time.Duration, len(t.spans)+1)
	for _, s := range t.spans {
		if !s.Async {
			child[s.Parent] += s.End - s.Start
		}
	}
	self := make(map[string]float64)
	for _, s := range t.spans {
		if s.Async {
			continue
		}
		layer, _, _ := strings.Cut(s.Name, ".")
		self[layer] += (s.End - s.Start - child[s.ID]).Seconds()
	}
	return self
}

// traceEvent is one span in the Chrome trace-event format, which
// Perfetto and chrome://tracing open.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // µs
	Dur  float64        `json:"dur"` // µs
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]int `json:"args"`
}

// write stores the spans at path as a Chrome trace.
func (t *tracer) write(path string) error {
	evs := make([]traceEvent, len(t.spans))
	for i, s := range t.spans {
		evs[i] = traceEvent{
			Name: s.Name, Ph: "X", Pid: 1, Tid: 1,
			Ts:   float64(s.Start.Nanoseconds()) / 1e3,
			Dur:  float64((s.End - s.Start).Nanoseconds()) / 1e3,
			Args: map[string]int{"id": s.ID, "parent": s.Parent, "trace": s.Trace},
		}
		if s.Async {
			evs[i].Tid = 2
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(map[string]any{"traceEvents": evs})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
