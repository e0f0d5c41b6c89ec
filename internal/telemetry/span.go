package telemetry

// SpanRecord is one execution span of the causal tracer: a single
// ExecBatch execution of one traced packet at one switch. It is the read
// view of a traced exec FlightRecord (FlightRecord.Span) — the lane's
// flight ring is the only store. Spans form a tree per trace — Parent is
// the span id carried by the packet when it arrived (zero for the trace
// root, the trigger's injection), and every emission of the execution
// inherits Span as its parent, so link crossings and packet clones become
// parent→child edges without any bookkeeping on the hop path.
//
// Span ids encode the recording lane: lane+1 in the high 32 bits, a
// lane-local sequence number below. That makes ids unique across lanes
// without atomics, keeps assignment deterministic, and lets a consumer
// recover the parent's lane from the id alone (SpanLane), which is how
// cross-shard edges are identified after the fact.
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
