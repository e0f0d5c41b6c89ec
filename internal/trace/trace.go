// Package trace records per-packet hop traces of the simulated data
// plane: for every pipeline execution, which switch ran it, on which
// ingress port, which flow entries matched (table/priority/cookie), which
// group bucket was chosen, and the decoded SmartSouth tag fields
// (start/par/cur) of the packet as it arrived. Retention is a fixed-size
// ring buffer, so tracing a Ring(400)-scale traversal keeps the tail of
// the execution without unbounded memory.
//
// The recorder is fed by network.ObserveExec and is entirely passive: it
// never mutates packets or switches, and it is opt-in (WithTrace), so the
// untraced hot path stays allocation-free. What it costs a traced run is
// a copy of each execution's step list into a reused ring slot; the
// strings are built when the trace is read.
package trace

import (
	"fmt"
	"strings"
	"sync"

	"smartsouth/internal/network"
	"smartsouth/internal/openflow"
)

// Rule is one matched flow entry in an event, with its actions rendered.
type Rule struct {
	Table    int    `json:"table"`
	Priority int    `json:"priority"`
	Cookie   string `json:"cookie"`
	Actions  string `json:"actions"`
}

// BucketChoice is one group-bucket decision in an event. Bucket -1 means
// the group dropped the packet (no live bucket, or not installed).
type BucketChoice struct {
	Group  uint32 `json:"group"`
	Type   string `json:"type"`
	Bucket int    `json:"bucket"`
}

// TagField is one decoded tag field of the packet as it arrived at the
// switch (pre-execution state); for SmartSouth services these are the
// traversal-phase field and the switch's own par/cur DFS state.
type TagField struct {
	Name  string `json:"name"`
	Value uint64 `json:"value"`
}

// Event is one recorded pipeline execution.
type Event struct {
	// Seq is the global execution sequence number (0-based); with a full
	// ring, Events() returns the tail of the sequence.
	Seq uint64 `json:"seq"`
	// At is the simulation time of the execution.
	At network.Time `json:"at"`

	Switch  int    `json:"switch"`
	InPort  int    `json:"inPort"`
	Eth     uint16 `json:"eth"`
	Service string `json:"service,omitempty"`
	Matched bool   `json:"matched"`

	Rules   []Rule         `json:"rules,omitempty"`
	Buckets []BucketChoice `json:"buckets,omitempty"`
	Tags    []TagField     `json:"tags,omitempty"`
	// Out lists the emission ports (physical ports >= 1; the reserved
	// controller/self ports appear as their negative constants).
	Out []int `json:"out,omitempty"`
}

func (e Event) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "#%d t=%dns sw=%d in=%d eth=%#04x", e.Seq, int64(e.At), e.Switch, e.InPort, e.Eth)
	if e.Service != "" {
		fmt.Fprintf(&b, " svc=%s", e.Service)
	}
	for _, tf := range e.Tags {
		fmt.Fprintf(&b, " %s=%d", tf.Name, tf.Value)
	}
	if !e.Matched {
		b.WriteString(" MISS")
	}
	for _, r := range e.Rules {
		fmt.Fprintf(&b, " | t%d[%d] %s", r.Table, r.Priority, r.Cookie)
	}
	for _, g := range e.Buckets {
		if g.Bucket < 0 {
			fmt.Fprintf(&b, " | group %d %s: drop", g.Group, g.Type)
		} else {
			fmt.Fprintf(&b, " | group %d %s bucket %d", g.Group, g.Type, g.Bucket)
		}
	}
	if len(e.Out) > 0 {
		fmt.Fprintf(&b, " -> out %v", e.Out)
	}
	return b.String()
}

// DefaultCapacity is the ring size used when WithTrace is given a
// non-positive capacity by the resolver.
const DefaultCapacity = 4096

// slot is one retained execution as ObserveExec handed it over: nothing
// is formatted until Events is called. The slices are reused when the
// ring wraps. Steps are kept by value — their cookies and action lists
// point into installed rules, which are immutable — and the tag values
// were captured from the packet as it arrived, through the decoder in
// force at the time.
type slot struct {
	at      network.Time
	sw      int
	inPort  int
	eth     uint16
	matched bool
	dec     *network.TagDecoder
	tags    [3]uint32
	steps   []openflow.Step
	groups  []openflow.GroupStep
	out     []int
}

// Recorder retains the last capacity pipeline executions in a ring
// buffer. Recording copies references and scalars; the strings of an
// Event are built when Events is read. It is safe for concurrent use
// (remote deployments feed it from the simulator goroutine while tests
// read it).
type Recorder struct {
	mu   sync.Mutex
	net  *network.Network
	ring []slot
	seq  uint64
}

// NewRecorder returns a recorder retaining the last capacity events
// (DefaultCapacity if capacity <= 0) of net. Service labels and tag
// decoding come from the network's registrations (Network.RegisterTags).
func NewRecorder(net *network.Network, capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Recorder{net: net, ring: make([]slot, 0, capacity)}
}

// OnExec records one pipeline execution; it is a network.ExecObserver.
// pkt is the packet as it arrived, so its tag is captured here (it
// mutates as it travels); the time is the executing lane's clock.
func (r *Recorder) OnExec(sw, inPort int, pkt *openflow.Packet, res *openflow.Result) {
	r.mu.Lock()
	defer r.mu.Unlock()
	i := int(r.seq % uint64(cap(r.ring)))
	if i == len(r.ring) {
		r.ring = r.ring[:i+1] // still filling; a slot past Reset keeps its slices
	}
	s := &r.ring[i]
	r.seq++
	s.at, s.sw, s.inPort, s.eth, s.matched = r.net.NowAt(sw), sw, inPort, pkt.EthType, res.Matched
	if s.dec = r.net.TagDecoder(pkt.EthType); s.dec != nil {
		s.dec.Capture(sw, pkt.Tag, &s.tags)
	}
	s.steps = append(s.steps[:0], res.Steps...)
	s.groups = append(s.groups[:0], res.GroupSteps...)
	s.out = s.out[:0]
	for _, em := range res.Emissions {
		s.out = append(s.out, em.Port)
	}
}

// event renders one slot.
func (s *slot) event(seq uint64) Event {
	e := Event{Seq: seq, At: s.at, Switch: s.sw, InPort: s.inPort, Eth: s.eth, Matched: s.matched}
	if s.dec != nil {
		e.Service = s.dec.Service()
		for i, f := range s.dec.Fields(s.sw) {
			if f.Valid() {
				e.Tags = append(e.Tags, TagField{Name: f.Name, Value: uint64(s.tags[i])})
			}
		}
	}
	for _, st := range s.steps {
		e.Rules = append(e.Rules, Rule{
			Table: st.Table, Priority: st.Priority, Cookie: st.Cookie, Actions: actionsString(st.Actions),
		})
	}
	for _, g := range s.groups {
		e.Buckets = append(e.Buckets, BucketChoice{Group: g.Group, Type: g.Type.String(), Bucket: g.Bucket})
	}
	if len(s.out) > 0 {
		e.Out = append([]int(nil), s.out...)
	}
	return e
}

// Events renders the retained executions, oldest first (nil on a nil
// recorder, so a deployment without WithTrace reads as empty).
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	n := uint64(len(r.ring))
	out := make([]Event, 0, n)
	for seq := r.seq - n; seq < r.seq; seq++ {
		out = append(out, r.ring[seq%uint64(cap(r.ring))].event(seq))
	}
	return out
}

// Dropped returns how many events were evicted by the ring.
func (r *Recorder) Dropped() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seq - uint64(len(r.ring))
}

// Reset discards retained events and the sequence counter.
func (r *Recorder) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ring = r.ring[:0]
	r.seq = 0
}

func actionsString(acts []openflow.Action) string {
	if len(acts) == 0 {
		return ""
	}
	parts := make([]string, len(acts))
	for i, a := range acts {
		parts[i] = a.String()
	}
	return strings.Join(parts, ", ")
}
