package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one traced call into a layer. Spans of one cell share its
// trace ID; set-up, the resume pass and report rendering have trace IDs
// of their own.
type Span struct {
	Trace  string `json:"trace"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root span
	Name   string `json:"name"`
	// Start and End are offsets from the tracer's creation.
	Start time.Duration `json:"start_ns"`
	End   time.Duration `json:"end_ns"`
}

// tracer keeps every span in memory until the run ends. A nil tracer
// records nothing.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []Span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// scope is an open span that child spans attach to. The zero scope
// (nil tracer) makes every call untraced.
type scope struct {
	t     *tracer
	trace string
	id    int
}

// root opens a root span of a new trace.
func (t *tracer) root(trace, name string) scope {
	if t == nil {
		return scope{}
	}
	return scope{t: t, trace: trace, id: t.open(trace, -1, name)}
}

func (t *tracer) open(trace string, parent int, name string) int {
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{Trace: trace, ID: len(t.spans), Parent: parent, Name: name, Start: now})
	return len(t.spans) - 1
}

func (t *tracer) close(id int) {
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// end closes the scope's own span.
func (s scope) end() {
	if s.t != nil {
		s.t.close(s.id)
	}
}

// call runs fn inside a child span named name.
func (s scope) call(name string, fn func()) {
	if s.t == nil {
		fn()
		return
	}
	id := s.t.open(s.trace, s.id, name)
	fn()
	s.t.close(id)
}

// recorded returns a copy of the recorded spans.
func (t *tracer) recorded() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.recorded() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerTime is the summed self time and call count of one span name.
type layerTime struct {
	self  time.Duration
	calls int
}

// selfTimes sums, per span name, each span's self time: its duration
// minus the part of it that its direct children cover. Children may
// overlap one another; the covered part counts once. A child's own
// children are inside it, so only direct children are subtracted.
func selfTimes(spans []Span) (map[string]layerTime, error) {
	children := map[int][]Span{}
	for _, s := range spans {
		if s.End < s.Start {
			return nil, fmt.Errorf("span %d (%s) is not closed", s.ID, s.Name)
		}
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]layerTime{}
	for _, s := range spans {
		lt := out[s.Name]
		lt.self += s.End - s.Start - covered(s, children[s.ID])
		lt.calls++
		out[s.Name] = lt
	}
	return out, nil
}

// covered returns the length of the union of the kids' intervals,
// clipped to the parent's.
func covered(parent Span, kids []Span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total time.Duration
	curS, curE := parent.Start, parent.Start
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e <= s {
			continue
		}
		if s > curE {
			total += curE - curS
			curS, curE = s, e
		} else if e > curE {
			curE = e
		}
	}
	return total + curE - curS
}
