package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call the harness made into a layer. Spans of one cycle
// share a Trace id ("<workload>/<cycle>"); Parent is the span that was open
// when this one began (-1 for a cycle's root).
type span struct {
	Trace  string `json:"trace"`
	ID     int    `json:"span"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps the spans of a traced run in memory. A nil tracer, and one
// switched off, records nothing: begin returns -1 and end(-1) is a no-op, so
// call sites are the same in traced and untraced runs.
type tracer struct {
	on    bool
	epoch time.Time
	trace string
	spans []span
	stack []int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) enabled() bool { return t != nil && t.on }

// cycle starts a new trace id and switches recording on or off for it.
func (t *tracer) cycle(id string, on bool) {
	if t == nil {
		return
	}
	t.trace, t.on, t.stack = id, on, t.stack[:0]
}

func (t *tracer) begin(name string) int {
	if !t.enabled() {
		return -1
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Trace: t.trace, ID: id, Parent: parent, Name: name,
		Start: time.Since(t.epoch).Nanoseconds()})
	t.stack = append(t.stack, id)
	return id
}

func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	t.spans[id].End = time.Since(t.epoch).Nanoseconds()
	// Pop through id: a span ended out of order closes the ones above it.
	for n := len(t.stack); n > 0; n-- {
		if t.stack[n-1] == id {
			t.stack = t.stack[:n-1]
			break
		}
	}
}

// timed runs fn inside a span.
func (t *tracer) timed(name string, fn func()) {
	id := t.begin(name)
	fn()
	t.end(id)
}

// selfTimes returns, per span id, the span's duration minus the part of its
// interval that its direct children cover. Children may nest, touch or
// overlap; the covered part is the length of the union of their intervals
// clipped to the parent.
func selfTimes(spans []span) []int64 {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		ks := kids[i]
		sort.Slice(ks, func(a, b int) bool { return spans[ks[a]].Start < spans[ks[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range ks {
			lo, hi := spans[k].Start, spans[k].End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = (s.End - s.Start) - covered
	}
	return self
}

// ledger is the per-cycle account of a traced run: for every root span, the
// summed duration and self time of the spans below it, by name.
type ledger struct {
	root span
	dur  map[string]int64
	self map[string]int64
	n    map[string]int
}

// buildLedgers groups spans under their root spans.
func buildLedgers(spans []span) []ledger {
	self := selfTimes(spans)
	rootOf := make([]int, len(spans))
	var out []ledger
	idx := map[int]int{}
	for i, s := range spans {
		if s.Parent < 0 {
			rootOf[i] = i
			idx[i] = len(out)
			out = append(out, ledger{root: s, dur: map[string]int64{}, self: map[string]int64{}, n: map[string]int{}})
		} else {
			rootOf[i] = rootOf[s.Parent] // parents precede children
		}
		l := &out[idx[rootOf[i]]]
		l.dur[s.Name] += s.End - s.Start
		l.self[s.Name] += self[i]
		l.n[s.Name]++
	}
	return out
}

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
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
