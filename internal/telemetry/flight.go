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
	// FlightPacketIn is a delivery to the controller attachment.
	FlightPacketIn
	// FlightSelf is a delivery to a switch-local host.
	FlightSelf
	// FlightNote is a free-form marker (phase boundary, gate rejection).
	FlightNote
)

var kindNames = [...]string{"exec", "send", "packet-in", "self", "note"}

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
// CookieLen marks a cookie interned in the recorder's overflow table.
const (
	cookieInline   = 22
	cookieOverflow = 0xFF
)

// FlightRecord is one fixed-size ring entry, laid out to fill exactly one
// cache line (64 bytes) with no pointers: the record path is memory
// traffic, so the ring's footprint is the recorder's cost, and a
// pointer-free ring is never scanned by the garbage collector and its
// stores carry no write barriers. Which fields are meaningful depends on
// Kind; unused fields stay zero.
//
// The rule cookie (or note text) is stored inline when it fits 22 bytes
// — every cookie the compiler emits does — and interned in the
// recorder's overflow table otherwise; use Flight.SetCookie and
// Flight.CookieString rather than touching Cookie directly. Tag names
// live in the recorder's interned table, referenced by NameIdx.
// Switch/port ids are int16 (the simulator tops out far below 32k
// switches) and decoded tag values are truncated to 32 bits, which holds
// every field the compiler allocates (node indices and parity bits, not
// 64-bit quantities).
type FlightRecord struct {
	At   int64     // simulation time, ns
	Tags [3]uint32 // decoded tag values

	Group uint32

	Sw     int16 // executing switch / sender (-1 for notes)
	Port   int16 // ingress port / egress port for sends
	To     int16 // send destination switch
	ToPort int16

	Eth    uint16
	Bucket int16

	Kind    FlightKind
	Matched bool
	// Lane is the event-loop lane (shard) that recorded this entry: the
	// owning worker lane of a sharded run (the control lane records notes
	// and appears as the highest lane id), 0 on the classic single loop.
	// It is what lets a merged sharded dump be correlated with the
	// per-lane causal traces.
	Lane    uint8
	NumTags uint8
	NameIdx uint8 // index into the recorder's tag-name table

	CookieLen uint8 // 0..22 inline length; cookieOverflow = interned
	Cookie    [cookieInline]byte
}

// DefaultFlightCap is the ring size used when NewFlight is given a
// non-positive capacity. 256 one-line records keep the ring at 16KB —
// half of a typical L1d cache — so always-on recording does not evict
// the simulator's working set; only failed sends and executions are
// recorded, so this still spans an entire mid-size traversal. Deployments
// that want deeper history pass a larger capacity (WithFlightCap).
const DefaultFlightCap = 256

// Flight is a fixed-size ring of recent data-plane events — the
// always-on post-mortem buffer (see ring for the storage discipline:
// Slot, Cap, Len, Total and Snapshot are the ring's). Record at index i of
// a Snapshot has sequence number Seq()+i; resolve cookies and tag names
// through the recorder (CookieString, TagNames).
//
// Ownership mirrors the simulator it instruments: exactly one goroutine
// records (the Sim's event loop); Snapshot/WriteJSONL are for after the
// run, like reading a Network's counters.
type Flight struct {
	ring[FlightRecord]

	names [][3]string // interned tag-name sets, indexed by NameIdx

	// Overflow storage for cookies longer than a record's inline bytes
	// (in practice: note text). Deduplicated so a repeated long cookie
	// cannot grow the table per record.
	longCookies []string
	longIdx     map[string]uint32
}

// NewFlight returns a recorder retaining the last capacity records
// (DefaultFlightCap if capacity <= 0), rounded up to a power of two.
func NewFlight(capacity int) *Flight {
	if capacity <= 0 {
		capacity = DefaultFlightCap
	}
	return &Flight{ring: newRing[FlightRecord](capacity)}
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

// TagNames returns the interned name set for idx (zero strings when idx
// was never registered).
func (f *Flight) TagNames(idx uint8) [3]string {
	if int(idx) < len(f.names) {
		return f.names[idx]
	}
	return [3]string{}
}

// SetCookie stores s as the record's cookie: inline when it fits the
// record's fixed bytes (no allocation, no pointer), interned in the
// overflow table otherwise. The hot record paths only ever hit the
// inline case, which inlines into the caller; the interning slow path
// is outlined to keep it that way.
func (f *Flight) SetCookie(r *FlightRecord, s string) {
	if len(s) <= cookieInline {
		r.CookieLen = uint8(copy(r.Cookie[:], s))
		return
	}
	f.setCookieSlow(r, s)
}

func (f *Flight) setCookieSlow(r *FlightRecord, s string) {
	idx, ok := f.longIdx[s]
	if !ok {
		if f.longIdx == nil {
			f.longIdx = make(map[string]uint32)
		}
		idx = uint32(len(f.longCookies))
		f.longCookies = append(f.longCookies, s)
		f.longIdx[s] = idx
	}
	r.CookieLen = cookieOverflow
	binary.LittleEndian.PutUint32(r.Cookie[:4], idx)
}

// CookieString resolves a record's cookie text.
func (f *Flight) CookieString(r *FlightRecord) string {
	if r.CookieLen == cookieOverflow {
		idx := binary.LittleEndian.Uint32(r.Cookie[:4])
		if int(idx) < len(f.longCookies) {
			return f.longCookies[idx]
		}
		return "?"
	}
	n := int(r.CookieLen)
	if n > cookieInline {
		n = cookieInline
	}
	return string(r.Cookie[:n])
}

// Record appends r to the ring.
//
//simlint:hotpath
func (f *Flight) Record(r FlightRecord) {
	f.buf[f.seq&f.mask] = r
	f.seq++
}

// Seq returns the sequence number of the oldest retained record.
func (f *Flight) Seq() uint64 { return f.seq - uint64(f.Len()) }

// Reset discards all records and interned cookies (tag names survive:
// they are registration state, not history).
func (f *Flight) Reset() {
	f.ring.Reset()
	f.longCookies = nil
	f.longIdx = nil
}

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
	Lane    uint8       `json:"lane"`
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

// WriteJSONL writes the retained records as one JSON object per line,
// oldest first — the post-mortem dump format. Sequence numbers are
// reconstructed from the ring position; cookies and tag names resolved
// from the interned tables.
func (f *Flight) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	n, oldest := f.Len(), f.Seq()
	for i := 0; i < n; i++ {
		if err := enc.Encode(f.jsonFor(f.last(n, i), oldest+uint64(i))); err != nil {
			return err
		}
	}
	return nil
}

// WriteMergedJSONL interleaves the retained records of several recorders
// into one JSONL stream ordered by simulation time — the post-mortem view
// of a sharded run, where each lane keeps its own ring. Records with equal
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
		for i, n := 0, f.Len(); i < n; i++ {
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
