package telemetry

// SpanRecord is one execution span of the causal tracer: a single
// ExecBatch execution of one traced packet at one switch. Spans form a
// tree per trace — Parent is the span id carried by the packet when it
// arrived (zero for the trace root, the trigger's injection), and every
// emission of the execution inherits Span as its parent, so link
// crossings and packet clones become parent→child edges without any
// bookkeeping on the hop path.
//
// Span ids encode the recording lane: lane+1 in the high 32 bits, a
// lane-local sequence number below. That makes ids unique across lanes
// without atomics, keeps assignment deterministic, and lets a consumer
// recover the parent's lane from the id alone (SpanLane), which is how
// cross-shard edges are identified after the fact.
//
// Like FlightRecord the struct is pointer-free, so a ring of them is
// never scanned by the garbage collector and its stores carry no write
// barriers.
type SpanRecord struct {
	Span    uint64 // this span's id (never zero)
	Parent  uint64 // parent span id; zero marks a trace root
	At      int64  // simulation time of the execution, ns
	Trace   uint32 // traversal id, assigned at injection
	Sw      int32  // executing switch
	Lane    int16  // recording lane (shard id; the control lane on stray execs)
	Port    int16  // ingress port
	Eth     uint16
	Emits   uint8 // emissions of the execution, clamped at 255
	Matched bool
}

// SpanLane recovers the lane that assigned a span id (-1 for id 0, the
// synthetic parent of trace roots).
func SpanLane(id uint64) int { return int(id>>32) - 1 }

// DefaultSpanCap is the per-lane span-ring capacity used when the
// timeline option is given a non-positive capacity.
const DefaultSpanCap = 4096

// Spans is a fixed-size ring of SpanRecords, one per recording lane —
// the storage side of the causal tracer, on the same ring as Flight (Slot,
// Cap, Len, Total, Snapshot and Reset are the ring's; the claim-before /
// fill-after contract of Slot is what the batch recorder relies on).
type Spans struct {
	ring[SpanRecord]
}

// NewSpans returns a ring retaining the last capacity spans
// (DefaultSpanCap if capacity <= 0), rounded up to a power of two.
func NewSpans(capacity int) *Spans {
	if capacity <= 0 {
		capacity = DefaultSpanCap
	}
	return &Spans{newRing[SpanRecord](capacity)}
}

// AppendSince appends to dst the spans recorded after the first prev
// claims, oldest first. Spans the ring has already evicted are lost —
// only the retained suffix is appended. Together with Total this lets a
// consumer drain a ring incrementally between runs in O(new records)
// instead of re-snapshotting the whole ring.
func (s *Spans) AppendSince(dst []SpanRecord, prev uint64) []SpanRecord {
	if prev > s.seq {
		prev = 0 // the ring was Reset after the cursor was taken
	}
	n := s.Len()
	if fresh := s.seq - prev; fresh < uint64(n) {
		n = int(fresh)
	}
	for i := 0; i < n; i++ {
		dst = append(dst, *s.last(n, i))
	}
	return dst
}
