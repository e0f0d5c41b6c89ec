package openflow

import (
	"fmt"
	"sync"

	"smartsouth/internal/telemetry"
)

// Reserved output port numbers, mirroring the OFPP_* reserved ports of
// OpenFlow 1.3. Physical ports are numbered 1..NumPorts; 0 is never a valid
// physical port (SmartSouth uses parent==0 to mean "no parent").
const (
	// PortController sends the packet to the controller (packet-in).
	PortController = -1
	// PortSelf delivers the packet to the switch-local host/agent
	// (OFPP_LOCAL); anycast receivers are modelled this way.
	PortSelf = -2
	// PortInPort bounces the packet out of its ingress port (OFPP_IN_PORT).
	PortInPort = -3
	// PortDrop discards the packet explicitly.
	PortDrop = -4
)

// Packet is the unit the pipeline operates on.
//
// Header fields are reduced to the ones the SmartSouth compiler actually
// needs: an EtherType to demultiplex services, a TTL (used by the
// TTL-binary-search blackhole detector), a fixed-size tag area addressed by
// Field, and an MPLS-like label stack used by the snapshot service to
// record the traversal. Payload is opaque data ("the data section").
type Packet struct {
	EthType uint16
	TTL     uint8
	Tag     []byte
	Labels  []uint32 // label stack; the last element is the top
	Payload []byte

	// InPort is the ingress port at the switch currently processing the
	// packet. It is set by Switch.Receive, not by the sender.
	InPort int

	// TraceID and SpanID thread the causal tracer's identity through the
	// data plane: TraceID names the traversal (assigned at injection when
	// timeline tracing is on, zero otherwise), SpanID the most recent
	// pipeline execution the packet passed through (the parent of its next
	// execution's span). Both are plain scalars copied by the clone paths,
	// so the steady hop path stays allocation-free whether or not tracing
	// is enabled.
	TraceID uint32
	SpanID  uint64
}

// NewPacket returns a packet of the given EtherType with a zeroed tag area
// of tagBytes bytes.
func NewPacket(ethType uint16, tagBytes int) *Packet {
	return &Packet{EthType: ethType, TTL: 255, Tag: make([]byte, tagBytes)}
}

// Clone returns a deep copy of the packet. Group type ALL and the
// controller path use it so that downstream mutation cannot alias.
func (p *Packet) Clone() *Packet {
	q := &Packet{EthType: p.EthType, TTL: p.TTL, InPort: p.InPort,
		TraceID: p.TraceID, SpanID: p.SpanID}
	q.Tag = append([]byte(nil), p.Tag...)
	q.Labels = append([]uint32(nil), p.Labels...)
	q.Payload = append([]byte(nil), p.Payload...)
	return q
}

// pktPool is the process-wide packet freelist. Pooled packets keep their
// Tag/Labels/Payload backing arrays between uses, so a steady-state hop
// (clone at emission, clone at pipeline entry) recycles buffers instead of
// allocating. The pool is safe for concurrent use, which is what lets the
// parallel sweep runner share it across simulations. Misses feed the
// process tier of the telemetry (the networks count their gets), so a
// scrape can tell whether the freelist is actually recycling (hit rate
// ~1) or degenerating into the allocator.
var pktPool = sync.Pool{New: func() any {
	telemetry.PoolMisses.Add(1)
	return new(Packet)
}}

// ClonePooled returns a deep copy of p backed by the packet freelist.
//
// Ownership rules: the caller owns the clone and must either hand it off
// permanently (e.g. deliver it to user code, which may retain it — such
// packets are simply never released) or call Release exactly once when the
// packet is dead. Releasing a packet that anyone still references is a
// use-after-free-style bug: the pool will recycle and overwrite it.
//
//simlint:hotpath
func (p *Packet) ClonePooled() *Packet {
	//simlint:ignore hotpath: freelist-backed; a steady-state hop recycles, misses are counted
	q := pktPool.Get().(*Packet)
	q.EthType, q.TTL, q.InPort = p.EthType, p.TTL, p.InPort
	q.TraceID, q.SpanID = p.TraceID, p.SpanID
	q.Tag = append(q.Tag[:0], p.Tag...)
	q.Labels = append(q.Labels[:0], p.Labels...)
	q.Payload = append(q.Payload[:0], p.Payload...)
	return q
}

// Release returns a dead packet to the freelist. Only release packets you
// own (see ClonePooled); never release a packet delivered to a callback or
// stored in a Result you returned to a caller. Releasing a non-pooled
// packet is allowed — it just donates its buffers to the pool.
//
//simlint:hotpath
func (p *Packet) Release() {
	//simlint:ignore hotpath: freelist return; Put of a live pointer never allocates
	pktPool.Put(p)
}

// Size returns the wire size of the packet in bytes, used for the message
// size accounting of Table 2. A label costs 4 bytes (MPLS-like shim), and
// the fixed header is approximated by the usual 14-byte Ethernet frame
// header plus the TTL byte.
func (p *Packet) Size() int {
	return 14 + 1 + len(p.Tag) + 4*len(p.Labels) + len(p.Payload)
}

// Load reads a tag field.
func (p *Packet) Load(f Field) uint64 { return f.Load(p.Tag) }

// Store writes a tag field.
func (p *Packet) Store(f Field, v uint64) { f.Store(p.Tag, v) }

// PushLabel pushes onto the label stack.
func (p *Packet) PushLabel(v uint32) { p.Labels = append(p.Labels, v) }

// PopLabel pops the label stack, reporting whether a label was present.
func (p *Packet) PopLabel() (uint32, bool) {
	if len(p.Labels) == 0 {
		return 0, false
	}
	v := p.Labels[len(p.Labels)-1]
	p.Labels = p.Labels[:len(p.Labels)-1]
	return v, true
}

func (p *Packet) String() string {
	return fmt.Sprintf("pkt{eth=%#04x ttl=%d in=%d tag=%dB labels=%d payload=%dB}",
		p.EthType, p.TTL, p.InPort, len(p.Tag), len(p.Labels), len(p.Payload))
}
