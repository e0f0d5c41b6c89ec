package telemetry

import (
	"encoding/binary"
	"encoding/json"
	"io"
	"sort"
)

// FlightKind classifies a flight-recorder record.
type FlightKind uint8

const (
	// FlightExec is one pipeline execution (packet arrival at a switch).
	FlightExec FlightKind = iota
	// FlightSend is one failed link transmission (down link, loss,
	// blackhole). Delivered hops are not recorded: each one is already
	// visible as the receiving switch's FlightExec record, so spending
	// ring entries on them would only halve the retained history.
	FlightSend
	// FlightNote is a free-form marker (phase boundary, gate rejection).
	FlightNote
)

var kindNames = [...]string{"exec", "send", "note"}

func (k FlightKind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "?"
}

// FlightTag is one decoded packet tag field (e.g. the DFS start/par/cur
// state) as it appears in a JSONL dump.
type FlightTag struct {
	Name string `json:"name"`
	Val  uint64 `json:"val"`
}

// cookieInline is the cookie capacity of a record; cookieOverflow in
// CookieLen marks a cookie held in the recorder's slot-parallel overflow
// array.
const (
	cookieInline   = 22
	cookieOverflow = 0xFF
)

// FlightRecord is one fixed-size ring entry — the one per-execution record
// of a lane: the flight dump and the causal timeline are two readers of
// it. It is 80 bytes with no pointers: the record path is memory traffic,
// so the ring's footprint is the recorder's cost, and a pointer-free ring
// is never scanned by the garbage collector and its stores carry no write
// barriers. Which fields are meaningful depends on Kind; unused fields
// stay zero.
//
// The rule cookie (or note text) is stored inline when it fits 22 bytes
// and in the recorder's overflow array, at the record's ring slot,
// otherwise — compiled cookies outgrow the inline bytes once node ids
// reach four digits ("svc8802/n1102/ret-c1-p5") or carry a variant
// suffix. An overflow record keeps its sequence number in Cookie, so its
// text resolves while the ring still retains it. Use Flight.SetCookie
// and Flight.CookieString rather than touching Cookie directly. Tag names
// live in the recorder's interned table, referenced by NameIdx.
// Switch/port ids are int16 (the simulator tops out far below 32k
// switches) and decoded tag values are truncated to 32 bits, which holds
// every field the compiler allocates (node indices and parity bits, not
// 64-bit quantities).
//
// An exec record of a traced packet (Trace != 0) is also that
// execution's causal span; Span returns the SpanRecord view. The span id
// is not stored whole: it is Lane+1 in the high 32 bits over SpanSeq, and
// the parent's id is split the same way into ParentLane and ParentSeq.
type FlightRecord struct {
	At   int64     // simulation time, ns
	Tags [3]uint32 // decoded tag values

	Group uint32

	Trace     uint32 // traversal id of a traced execution; zero otherwise
	SpanSeq   uint32 // the lane's sequence number of this span
	ParentSeq uint32 // low word of the parent span id

	Sw     int16 // executing switch / sender (-1 for notes)
	Port   int16 // ingress port / egress port for sends
	To     int16 // send destination switch
	ToPort int16

	Eth    uint16
	Bucket int16

	// Lane is the event-loop lane (shard) that recorded this entry: the
	// owning worker lane of a sharded run (the control lane records notes
	// and appears as the highest lane id), 0 on the classic single loop.
	Lane uint16
	// ParentLane is the high word of the parent span id: the parent's lane
	// + 1, zero (with ParentSeq) for a trace root.
	ParentLane uint16

	Kind    FlightKind
	Matched bool
	NumTags uint8
	NameIdx uint8 // index into the recorder's tag-name table
	Emits   uint8 // emissions of the execution, clamped at 255

	CookieLen uint8 // 0..22 inline length; cookieOverflow = in the overflow array
	Cookie    [cookieInline]byte
}

// Span returns the causal-span view of an exec record of a traced packet.
func (r *FlightRecord) Span() SpanRecord {
	return SpanRecord{
		Span:    uint64(r.Lane+1)<<32 | uint64(r.SpanSeq),
		Parent:  uint64(r.ParentLane)<<32 | uint64(r.ParentSeq),
		At:      r.At,
		Trace:   r.Trace,
		Sw:      int32(r.Sw),
		Lane:    int16(r.Lane),
		Port:    r.Port,
		Eth:     r.Eth,
		Emits:   r.Emits,
		Matched: r.Matched,
	}
}

// DefaultFlightCap is the dump depth used when NewFlight is given a zero
// capacity. 256 records keep the ring at 20KB — well inside a typical L1d
// cache — so always-on recording does not evict the simulator's working
// set; only failed sends and executions are recorded, so this still spans
// an entire mid-size traversal. Deployments that want deeper history
// pass a larger capacity (WithFlightCap).
const DefaultFlightCap = 256

// Flight is a fixed-size ring of recent data-plane events — the
// always-on post-mortem buffer and the store of the causal tracer's
// spans. Recording is a struct store into a preallocated array: no locks,
// no allocation, nothing proportional to history length. Sequence
// numbers are not stored per record; they follow from the ring position.
// Resolve cookies and tag names through the recorder (CookieString,
// TagNames).
//
// Ownership mirrors the simulator it instruments: exactly one goroutine
// records (the owning lane's event loop); the readers are for after the
// run, like reading a Network's counters.
type Flight struct {
	buf  []FlightRecord
	mask uint64 // len(buf)-1; capacity is forced to a power of two
	seq  uint64
	dump int // records a dump emits once the ring has wrapped; 0: dumps off

	names [][3]string // interned tag-name sets, indexed by NameIdx

	// long holds the cookies longer than a record's inline bytes, one
	// entry per ring slot, so it is bounded by the capacity like the ring
	// itself. Allocated on the first long cookie.
	long []string
}

// NewFlight returns a recorder whose dumps emit the last capacity records
// (DefaultFlightCap if capacity is 0, dumps off if negative) and whose
// ring retains max(capacity, spans) records, rounded up to a power of two
// so the record path indexes with a mask instead of an integer division:
// the causal timeline reads the deeper history, the dump only its tail.
func NewFlight(capacity, spans int) *Flight {
	if capacity == 0 {
		capacity = DefaultFlightCap
	}
	f := &Flight{}
	if capacity > 0 {
		f.dump = pow2(capacity)
	}
	n := pow2(max(capacity, spans))
	f.buf, f.mask = make([]FlightRecord, n), uint64(n-1)
	return f
}

// pow2 rounds n up to a power of two (at least 1).
func pow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// Slot claims the next ring entry, cleared, for the caller to fill in
// place — half the memory traffic of building the record on the stack and
// copying it. The pointer is only valid until the next claim, so batch
// recorders that claim several slots before filling them must bound the
// outstanding claims by Cap.
//
//simlint:hotpath
func (f *Flight) Slot() *FlightRecord {
	e := &f.buf[f.seq&f.mask]
	*e = FlightRecord{}
	f.seq++
	return e
}

// Cap returns the ring capacity — the number of records retained once
// the ring has wrapped.
func (f *Flight) Cap() int { return len(f.buf) }

// Len returns the number of retained records.
func (f *Flight) Len() int { return int(min(f.seq, uint64(len(f.buf)))) }

// Total returns the number of records written since creation,
// including those the ring has evicted.
func (f *Flight) Total() uint64 { return f.seq }

// DumpCap returns how many of the most recent records a dump emits once
// the ring has wrapped: zero when only the causal timeline reads the ring.
func (f *Flight) DumpCap() int { return f.dump }

// last returns the i-th of the n most recent records, oldest first
// (n <= Len).
func (f *Flight) last(n, i int) *FlightRecord {
	return &f.buf[(f.seq-uint64(n)+uint64(i))&f.mask]
}

// AppendSpans appends to dst the causal spans among the records claimed
// after the first since, oldest first: the exec records of traced
// packets. Records the ring has already evicted are lost. Together with
// Total this lets a consumer drain the timeline incrementally between
// runs in O(new records) instead of re-reading the whole ring.
func (f *Flight) AppendSpans(dst []SpanRecord, since uint64) []SpanRecord {
	n := int(min(uint64(f.Len()), f.seq-since))
	for i := 0; i < n; i++ {
		if r := f.last(n, i); r.Kind == FlightExec && r.Trace != 0 {
			dst = append(dst, r.Span())
		}
	}
	return dst
}

// RegisterTagNames interns one set of (up to three) tag-field names and
// returns the index records reference via NameIdx. Sets are deduplicated;
// past 256 distinct sets new registrations collapse onto index 0, which
// mislabels rather than corrupts (a deployment registers a handful).
func (f *Flight) RegisterTagNames(names [3]string) uint8 {
	for i := range f.names {
		if f.names[i] == names {
			return uint8(i)
		}
	}
	if len(f.names) >= 256 {
		return 0
	}
	f.names = append(f.names, names)
	return uint8(len(f.names) - 1)
}

// SetCookie stores s as the cookie of the record claimed as sequence
// number seq (Total just before its Slot call): inline when it fits the
// record's fixed bytes, in the overflow array at the record's slot
// otherwise. Neither case allocates after the first long cookie or looks
// anything up. Like the pointer Slot returns, seq is only valid until the
// ring has wrapped past it.
func (f *Flight) SetCookie(seq uint64, s string) {
	slot := seq & f.mask
	r := &f.buf[slot]
	if len(s) <= cookieInline {
		r.CookieLen = uint8(copy(r.Cookie[:], s))
		return
	}
	if f.long == nil {
		f.long = make([]string, len(f.buf))
	}
	f.long[slot] = s
	r.CookieLen = cookieOverflow
	binary.LittleEndian.PutUint64(r.Cookie[:8], seq)
}

// CookieString resolves a record's cookie text — a record of this ring or
// a copy of one. An overflow cookie resolves through its
// record's slot while the ring retains the record; "?" once it is evicted.
func (f *Flight) CookieString(r *FlightRecord) string {
	if r.CookieLen == cookieOverflow {
		seq := binary.LittleEndian.Uint64(r.Cookie[:8])
		if f.long == nil || seq >= f.seq || f.seq-seq > uint64(len(f.buf)) {
			return "?"
		}
		return f.long[seq&f.mask]
	}
	n := int(r.CookieLen)
	if n > cookieInline {
		n = cookieInline
	}
	return string(r.Cookie[:n])
}

// Record appends r to the ring. The lanes claim records in place
// (Slot); Record is the by-value form.
//
//simlint:hotpath
//simlint:testapi BenchmarkFlightRecord, a benchguard-gated row of BENCH_pr10.json, and the ring tests record through it
func (f *Flight) Record(r FlightRecord) {
	f.buf[f.seq&f.mask] = r
	f.seq++
}

// dumpLen returns how many records a dump emits now.
func (f *Flight) dumpLen() int { return min(f.Len(), f.dump) }

// jsonRecord is the JSONL view of a record: kind as a string, tags
// trimmed to the populated prefix, zero-valued fields elided.
type jsonRecord struct {
	Seq     uint64      `json:"seq"`
	At      int64       `json:"at"`
	Kind    string      `json:"kind"`
	Sw      int16       `json:"sw"`
	Port    int16       `json:"port,omitempty"`
	To      int16       `json:"to,omitempty"`
	ToPort  int16       `json:"toPort,omitempty"`
	Eth     uint16      `json:"eth,omitempty"`
	Matched bool        `json:"matched,omitempty"`
	Lane    uint16      `json:"lane"`
	Cookie  string      `json:"cookie,omitempty"`
	Group   uint32      `json:"group,omitempty"`
	Bucket  int16       `json:"bucket,omitempty"`
	Tags    []FlightTag `json:"tags,omitempty"`
}

// jsonFor builds the JSONL view of one record, resolving cookies and tag
// names from this recorder's interned tables.
func (f *Flight) jsonFor(r *FlightRecord, seq uint64) jsonRecord {
	jr := jsonRecord{
		Seq: seq, At: r.At, Kind: r.Kind.String(),
		Sw: r.Sw, Port: r.Port, To: r.To, ToPort: r.ToPort,
		Eth: r.Eth, Matched: r.Matched, Lane: r.Lane,
		Cookie: f.CookieString(r), Group: r.Group, Bucket: r.Bucket,
	}
	if r.NumTags > 0 && int(r.NameIdx) < len(f.names) {
		names := &f.names[r.NameIdx]
		for t := uint8(0); t < r.NumTags && t < 3; t++ {
			jr.Tags = append(jr.Tags, FlightTag{Name: names[t], Val: uint64(r.Tags[t])})
		}
	}
	return jr
}

// WriteJSONL writes the last DumpCap records as one JSON object per line,
// oldest first — the post-mortem dump format, the same whether or not the
// ring retains deeper history for the timeline. Sequence numbers are
// reconstructed from the ring position; cookies and tag names resolved
// from the interned tables.
func (f *Flight) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	n := f.dumpLen()
	oldest := f.seq - uint64(n)
	for i := 0; i < n; i++ {
		if err := enc.Encode(f.jsonFor(f.last(n, i), oldest+uint64(i))); err != nil {
			return err
		}
	}
	return nil
}

// WriteMergedJSONL interleaves the dumped records (the last DumpCap of
// each) of several recorders into one JSONL stream ordered by simulation
// time — the post-mortem view of a sharded run, where each lane keeps its
// own ring. Records with equal
// timestamps keep ring order (the rings slice order, then ring position),
// so the merged dump is deterministic for a deterministic run. Sequence
// numbers are reassigned 0..n-1 over the merged stream; each record's
// cookies and tag names resolve through its own recorder.
func WriteMergedJSONL(w io.Writer, rings []*Flight) error {
	type src struct {
		f *Flight
		r *FlightRecord
	}
	var all []src
	for _, f := range rings {
		if f == nil {
			continue
		}
		for i, n := 0, f.dumpLen(); i < n; i++ {
			all = append(all, src{f: f, r: f.last(n, i)})
		}
	}
	// Each ring is recorded by one monotonic clock, so a stable sort by
	// timestamp keeps per-ring order automatically; ties across rings
	// resolve by the rings slice order because that is the append order.
	sort.SliceStable(all, func(i, j int) bool { return all[i].r.At < all[j].r.At })
	enc := json.NewEncoder(w)
	for i, s := range all {
		if err := enc.Encode(s.f.jsonFor(s.r, uint64(i))); err != nil {
			return err
		}
	}
	return nil
}
