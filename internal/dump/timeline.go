package dump

import (
	"encoding/json"
	"fmt"
	"io"

	"smartsouth/internal/telemetry"
)

// The causal tracer's spans export as Chrome trace-event JSON
// (WriteChromeTrace) for chrome://tracing and Perfetto, from the merged,
// time-ordered record slice Network.DrainSpans returns.

// chromeEvent is one trace-event object. The viewer maps pid→process
// row and tid→thread row; we map lanes to processes and switches to
// threads, so a sharded run renders as one swimlane block per shard
// with the traversal hopping between them.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"` // microseconds
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	ID   string         `json:"id,omitempty"`
	Cat  string         `json:"cat,omitempty"`
	BP   string         `json:"bp,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteChromeTrace renders merged span records as a Chrome trace-event
// JSON array. Every span becomes a complete ("X") event; every
// parent→child edge that crosses a lane boundary additionally becomes a
// flow-event pair ("s" at the parent, "f" at the child), which the
// viewer draws as an arrow between the shard swimlanes — the cross-shard
// stitching made visible. Same-lane edges are left implicit (nesting on
// the time axis already shows them), which keeps the file small and
// makes flow events a direct count of cross-shard causality.
func WriteChromeTrace(w io.Writer, recs []telemetry.SpanRecord) error {
	bySpan := make(map[uint64]*telemetry.SpanRecord, len(recs))
	// earliestChild[s] is the At of span s's earliest child — the span's
	// visible duration (an execution "lasts" until its first consequence;
	// leaves get a nominal 1ns so they render).
	earliestChild := make(map[uint64]int64, len(recs))
	for i := range recs {
		r := &recs[i]
		bySpan[r.Span] = r
		if r.Parent != 0 {
			if at, ok := earliestChild[r.Parent]; !ok || r.At < at {
				earliestChild[r.Parent] = r.At
			}
		}
	}
	events := make([]chromeEvent, 0, len(recs))
	for i := range recs {
		r := &recs[i]
		dur := int64(1)
		if at, ok := earliestChild[r.Span]; ok && at > r.At {
			dur = at - r.At
		}
		events = append(events, chromeEvent{
			Name: fmt.Sprintf("sw%d exec", r.Sw),
			Ph:   "X",
			Ts:   float64(r.At) / 1000.0,
			Dur:  float64(dur) / 1000.0,
			Pid:  int(r.Lane),
			Tid:  int(r.Sw),
			Args: map[string]any{
				"trace":   r.Trace,
				"span":    r.Span,
				"parent":  r.Parent,
				"port":    r.Port,
				"eth":     fmt.Sprintf("0x%04x", r.Eth),
				"matched": r.Matched,
				"emits":   r.Emits,
			},
		})
		if r.Parent == 0 {
			continue
		}
		p, ok := bySpan[r.Parent]
		if !ok || int(p.Lane) == int(r.Lane) {
			continue
		}
		// Cross-lane edge: a flow arrow from the parent's slice to ours.
		// The id must be unique per arrow; the child span id is (every
		// span has at most one parent).
		id := fmt.Sprintf("x%d", r.Span)
		events = append(events,
			chromeEvent{Name: "hop", Ph: "s", Cat: "xshard", ID: id,
				Ts: float64(p.At) / 1000.0, Pid: int(p.Lane), Tid: int(p.Sw)},
			chromeEvent{Name: "hop", Ph: "f", BP: "e", Cat: "xshard", ID: id,
				Ts: float64(r.At) / 1000.0, Pid: int(r.Lane), Tid: int(r.Sw)})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(events)
}
