// Package core implements SmartSouth, the paper's contribution: a compiler
// that turns the in-band DFS traversal template (Algorithm 1) and the four
// case-study services — snapshot, anycast/priocast, blackhole detection and
// critical-node detection — into ordinary OpenFlow 1.3 flow and group
// entries, executed by the generic pipeline of package openflow.
//
// Nothing in this package runs at packet-processing time: it only *emits
// rules*. All runtime behaviour is carried out by the dumb match-action
// pipeline, which is exactly the paper's point.
package core

import (
	"fmt"

	"smartsouth/internal/openflow"
	"smartsouth/internal/topo"
)

// Layout allocates the packet tag bit layout for one service instance:
// the global start field, the per-node parent/current-port fields of
// Algorithm 1, and any service-specific fields requested with Alloc.
//
// Per node i the fields hold values 0..Degree(i), where 0 means "unset"
// (and, for the parent field of the root, "my parent is the requester").
// The DFS part therefore costs sum_i 2*ceil(log2(deg_i+1)) bits — the
// O(n log n) bits of the paper's Table 2 footnote.
type Layout struct {
	G *topo.Graph

	// Start is the global traversal-phase field: 0 = not started,
	// 1 = first traversal, 2 = second traversal (priocast phase two).
	Start openflow.Field
	// Par[i] and Cur[i] are node i's pkt.v_i.par / pkt.v_i.cur.
	Par, Cur []openflow.Field

	nextBit int
}

// NewLayout builds the base layout for a graph.
func NewLayout(g *topo.Graph) *Layout {
	l := &Layout{G: g}
	l.Start = l.Alloc("start", 2)
	n := g.NumNodes()
	l.Par = make([]openflow.Field, n)
	l.Cur = make([]openflow.Field, n)
	for i := 0; i < n; i++ {
		bits := openflow.BitsFor(uint64(g.Degree(i)))
		l.Par[i] = l.Alloc(fmt.Sprintf("v%d.par", i), bits)
		l.Cur[i] = l.Alloc(fmt.Sprintf("v%d.cur", i), bits)
	}
	return l
}

// NewStatefulLayout builds the layout the stateful backend uses: only the
// global start field is carried in the packet — the per-node parent and
// current-port values of Algorithm 1 live in switch state tables, so Par
// and Cur stay nil. This is the Table-2 tag-bit collapse: O(n log n)
// packet bits become O(1).
func NewStatefulLayout(g *topo.Graph) *Layout {
	l := &Layout{G: g}
	l.Start = l.Alloc("start", 2)
	return l
}

// Stateful reports whether this layout keeps the DFS position in switch
// state rather than in packet tag bits.
func (l *Layout) Stateful() bool { return l.Par == nil }

// NewStage allocates an additional, independent set of DFS state fields
// (a start field plus per-node par/cur), so multi-stage services like
// chaincast can run several traversals over one packet without the stages
// trampling each other's state. On a stateful layout only the stage start
// field is allocated — each stage owns its own state tables, so no
// per-node packet bits are needed.
func (l *Layout) NewStage(tag string) (start openflow.Field, par, cur []openflow.Field) {
	start = l.Alloc(tag+".start", 2)
	if l.Stateful() {
		return start, nil, nil
	}
	n := l.G.NumNodes()
	par = make([]openflow.Field, n)
	cur = make([]openflow.Field, n)
	for i := 0; i < n; i++ {
		bits := openflow.BitsFor(uint64(l.G.Degree(i)))
		par[i] = l.Alloc(fmt.Sprintf("%s.v%d.par", tag, i), bits)
		cur[i] = l.Alloc(fmt.Sprintf("%s.v%d.cur", tag, i), bits)
	}
	return start, par, cur
}

// Alloc reserves a fresh service field of the given width.
func (l *Layout) Alloc(name string, bits int) openflow.Field {
	f := openflow.Field{Name: name, Off: l.nextBit, Bits: bits}
	l.nextBit += bits
	return f
}

// TagBytes returns the tag size in bytes, rounded up.
func (l *Layout) TagBytes() int { return (l.nextBit + 7) / 8 }

// NewPacket returns a fresh, all-zero trigger packet for this layout.
func (l *Layout) NewPacket(ethType uint16) *openflow.Packet {
	return openflow.NewPacket(ethType, l.TagBytes())
}
