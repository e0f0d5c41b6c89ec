package network

import (
	"io"
	"slices"
	"time"

	"smartsouth/internal/openflow"
	"smartsouth/internal/telemetry"
)

// TagFields resolves the (up to three) tag fields decoded for one
// EtherType at one switch. The DFS state of a SmartSouth service is laid
// out per switch (par/cur live in switch-indexed field tables), hence the
// sw parameter. The returned array is by value, so resolution does not
// allocate.
type TagFields func(sw int) [3]openflow.Field

// tagExtract is one precompiled narrow-field read: the (at most two)
// byte indices a ≤9-bit field spans, the right shift of the 16-bit
// window they form, and the width mask. Eight bytes instead of the 40 of
// an openflow.Field, and the extraction inlines to a handful of shifts —
// the record path never calls Field.Load.
type tagExtract struct {
	first uint16
	last  uint16
	shift uint8
	_     uint8
	mask  uint16
}

// load reads the field from a packet tag area; tags too short for the
// field read as zero, like Field.Load.
func (e *tagExtract) load(tag []byte) uint32 {
	if int(e.first) < len(tag) && int(e.last) < len(tag) {
		v := uint32(tag[e.first])<<8 | uint32(tag[e.last])
		return v >> e.shift & uint32(e.mask)
	}
	return 0
}

// TagDecoder is what one EtherType is registered as: the service that
// owns it and the tag fields its packets carry — the one decoder table of
// a network, which the flight recorder and the hop trace both capture
// through. Immutable once registered: re-registering an EtherType puts a
// new decoder in the table and leaves the old one to whoever holds it.
// The name set is interned in the Flight recorder; records carry its
// index. The per-switch resolvers are materialized at registration, so
// the record path is a slice index instead of a closure call: extBySw
// when every field is narrow enough for tagExtract (the always case for
// DFS state), fieldsBySw (with Field.Load) when any field is wider.
type TagDecoder struct {
	eth        uint16
	service    string
	fields     TagFields
	nameIdx    uint8
	n          uint8
	wide       bool
	extBySw    [][3]tagExtract
	fieldsBySw [][3]openflow.Field
}

// Service names the service the EtherType was registered for.
func (d *TagDecoder) Service() string { return d.service }

// Fields returns the registered tag fields at switch sw, in Capture's
// order (none for a label-only registration).
func (d *TagDecoder) Fields(sw int) []openflow.Field {
	if d.n == 0 {
		return nil
	}
	f := d.fields(sw)
	return f[:d.n]
}

// TagDecoder returns the decoder registered for eth, or nil.
func (n *Network) TagDecoder(eth uint16) *TagDecoder {
	for _, d := range n.tagDec {
		if d.eth == eth {
			return d
		}
	}
	return nil
}

// RegisterTags registers an EtherType as service's, with named tag fields
// (e.g. the DFS start/par/cur state): every flight-recorder execution
// record and hop-trace event of such packets carries the decoded values,
// which is what makes a post-mortem dump replayable. fields is evaluated
// once per switch now, not on the record path; nil registers the label
// alone. Re-registering an EtherType replaces its decoder.
//
//simlint:barrier registration happens before Run; lanes are idle
func (n *Network) RegisterTags(eth uint16, service string, names [3]string, fields TagFields) {
	d := &TagDecoder{eth: eth, service: service, fields: fields}
	if i := slices.IndexFunc(n.tagDec, func(o *TagDecoder) bool { return o.eth == eth }); i >= 0 {
		n.tagDec[i] = d
	} else {
		n.tagDec = append(n.tagDec, d)
	}
	if fields == nil {
		return
	}
	for _, nm := range names {
		if nm != "" {
			d.n++
		}
	}
	bySw := make([][3]openflow.Field, len(n.switches))
	for sw := range bySw {
		bySw[sw] = fields(sw)
		for i := uint8(0); i < d.n; i++ {
			if f := bySw[sw][i]; f.Bits > 9 || f.Bits < 1 || f.Off < 0 || (f.Off+f.Bits-1)>>3 > 0xFFFF {
				d.wide = true
			}
		}
	}
	if n.ctl.flight != nil {
		// Intern the name set in every lane's ring. Registration order is the
		// same on each ring (this loop, every call), so the index agrees
		// across lanes and the shared decoder can carry a single nameIdx.
		for _, l := range n.lanes {
			d.nameIdx = l.flight.RegisterTagNames(names)
		}
	}
	if d.wide {
		d.fieldsBySw = bySw
		return
	}
	d.extBySw = make([][3]tagExtract, len(bySw))
	for sw := range bySw {
		for i := uint8(0); i < d.n; i++ {
			f := bySw[sw][i]
			first, last := f.Off>>3, (f.Off+f.Bits-1)>>3
			d.extBySw[sw][i] = tagExtract{
				first: uint16(first),
				last:  uint16(last),
				shift: uint8(16 - (f.Off + f.Bits - first*8)),
				mask:  uint16(1<<uint(f.Bits) - 1),
			}
		}
	}
}

// Flight returns the control lane's flight recorder, nil when telemetry
// or the recorder is disabled. On a sharded network each worker lane
// keeps its own ring as well; WriteFlightJSONL merges them.
//
//simlint:barrier post-run read of the control lane ring
func (n *Network) Flight() *telemetry.Flight { return n.ctl.flight }

// WriteFlightJSONL dumps the flight history as JSONL: the single ring of
// a classic network verbatim, or the per-lane rings of a sharded network
// merged by simulation time (ties keep lane order, so a deterministic run
// dumps deterministically).
//
//simlint:barrier post-run dump; all lanes are parked
func (n *Network) WriteFlightJSONL(w io.Writer) error {
	if n.ctl.flight == nil {
		return nil
	}
	if !n.multi {
		return n.ctl.flight.WriteJSONL(w)
	}
	rings := make([]*telemetry.Flight, 0, len(n.lanes))
	for _, l := range n.lanes {
		rings = append(rings, l.flight)
	}
	return telemetry.WriteMergedJSONL(w, rings)
}

// FlightNote appends a free-form marker record (phase boundary, oracle
// verdict, gate rejection) to the control lane's flight recorder, if
// enabled.
//
//simlint:barrier notes are recorded between runs on the control lane
func (n *Network) FlightNote(text string) {
	f := n.ctl.flight
	if f == nil {
		return
	}
	r := telemetry.FlightRecord{At: int64(n.Sim.now), Kind: telemetry.FlightNote, Sw: -1, Lane: uint8(n.ctl.id)}
	f.SetCookie(&r, text)
	f.Record(r)
}

// Capture decodes the registered tag fields of one packet tag area into
// out — the snapshot a flight record or a hop-trace slot will carry. It
// must run on the packet as it arrived: execution rewrites the tag.
func (d *TagDecoder) Capture(sw int, tag []byte, out *[3]uint32) {
	// Unrolled: d.n is at most 3 and almost always exactly 3.
	if !d.wide {
		if d.n > 0 {
			e := &d.extBySw[sw]
			out[0] = e[0].load(tag)
			if d.n > 1 {
				out[1] = e[1].load(tag)
				if d.n > 2 {
					out[2] = e[2].load(tag)
				}
			}
		}
	} else {
		f := &d.fieldsBySw[sw]
		for i := uint8(0); i < d.n; i++ {
			out[i] = uint32(f[i].Load(tag))
		}
	}
}

// Run drains the event queue and, unless telemetry is disabled, flushes
// the staged per-loop counters into the process-global metrics: the Run's
// simulated and wall-clock spans, the event/hop/pool counters, and the
// FlowTable scan deltas accumulated by the switches since the last flush.
// On a sharded network the drain is the conservative-window coordinator
// (runSharded) and every worker lane's staging is folded into the control
// lane's before the single flush.
//
//simlint:barrier drives the loop; workers only touch lanes inside the windows it hands out
func (n *Network) Run() (int, error) {
	run := n.Sim.Run
	if n.multi {
		run = n.runSharded
	}
	st := n.Sim.stats
	if st == nil {
		return run()
	}
	simStart := n.Sim.now
	//simlint:ignore determinism: wall-clock sample feeds telemetry only, never the sim
	wallStart := time.Now()
	steps, err := run()
	var agg openflow.ScanStats
	var cm uint64
	for _, sw := range n.switches {
		agg.Merge(sw.ScanStats())
		cm += sw.StateTransitions()
	}
	st.MatcherLookups += agg.MatcherLookups - n.prevMatcher
	st.FallbackLookups += agg.FallbackLookups - n.prevFallback
	st.FlowScanned += agg.Scanned - n.prevScanned
	st.StateCommits += cm - n.prevCommits
	n.prevMatcher, n.prevFallback = agg.MatcherLookups, agg.FallbackLookups
	n.prevScanned, n.prevCommits = agg.Scanned, cm
	for _, l := range n.lanes {
		if l != n.ctl && l.sim.stats != nil {
			st.MergeFrom(l.sim.stats)
		}
	}
	if n.ctl.flight != nil {
		// Record counts are derived from the rings' running totals here,
		// once per Run, so the record paths don't pay a counter bump.
		var t uint64
		for _, l := range n.lanes {
			t += l.flight.Total()
		}
		st.FlightRecords += t - n.prevFlightRecs
		n.prevFlightRecs = t
	}
	if n.ctl.spans != nil {
		// Same running-total pattern for the causal tracer's spans.
		var t uint64
		for _, l := range n.lanes {
			t += l.spans.Total()
		}
		st.SpanRecords += t - n.prevSpanRecs
		n.prevSpanRecs = t
	}
	//simlint:ignore determinism: wall-clock sample feeds telemetry only, never the sim
	st.FlushTo(telemetry.M, int64(n.Sim.now-simStart), time.Since(wallStart).Nanoseconds(), err != nil)
	return steps, err
}
