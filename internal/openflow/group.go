package openflow

import "fmt"

// GroupType enumerates the OpenFlow 1.3 group types this model supports.
type GroupType int

const (
	// GroupAll executes every bucket on its own copy of the packet
	// (OFPGT_ALL).
	GroupAll GroupType = iota
	// GroupIndirect executes its single bucket (OFPGT_INDIRECT).
	GroupIndirect
	// GroupFF executes the first bucket whose watch port is live
	// (OFPGT_FF, fast failover). This is what makes SmartSouth robust to
	// link failures without any controller involvement.
	GroupFF
	// GroupSelectRR is a SELECT group with the optional round-robin
	// bucket selection policy of OpenFlow 1.3. Each execution advances a
	// pointer held *in the switch*, which is the entire basis of the
	// paper's smart counters: bucket k writes the constant k into a tag
	// field, so applying the group is a fetch-and-increment whose result
	// the rest of the pipeline can match on.
	GroupSelectRR
)

func (t GroupType) String() string {
	switch t {
	case GroupAll:
		return "all"
	case GroupIndirect:
		return "indirect"
	case GroupFF:
		return "ff"
	case GroupSelectRR:
		return "select-rr"
	}
	return fmt.Sprintf("grouptype(%d)", int(t))
}

// WatchNone marks a bucket that is always considered live.
const WatchNone = 0

// Bucket is one action bucket of a group. For fast-failover groups,
// WatchPort names the physical port whose liveness gates the bucket;
// WatchNone makes the bucket unconditionally live (used for terminal
// "give up / go to parent" buckets).
type Bucket struct {
	WatchPort int
	Actions   []Action
}

// GroupEntry is one group-table entry. Like a flow entry it is read-only
// once built and carries no runtime state: one entry may be installed on
// many switches, and the bucket arrays of different entries may overlap
// (the compiler points a node's advance groups at suffixes of one array).
// What a switch keeps per installed group lives in its groupSlot.
type GroupEntry struct {
	ID      uint32
	Type    GroupType
	Buckets []Bucket
}

// groupSlot is one installed group: the shared entry plus the switch's own
// state for it. A group-mod that replaces an entry installs a fresh slot,
// which is what resets a smart counter.
type groupSlot struct {
	g *GroupEntry

	// hits[i] counts executions of bucket i (ofp_bucket_counter). The
	// controller can read it with a group-stats multipart request; for a
	// round-robin SELECT group the bucket counters reveal the smart
	// counter's value out of band. The slots of one install transaction
	// carve their arrays from one pointer-free chunk.
	hits []uint64

	// rr is the round-robin pointer of a GroupSelectRR group — switch
	// state that survives between packets. It is the smart counter value.
	rr int32

	// ffLive caches 1+index of the first live bucket of a GroupFF group,
	// so the steady-state failover path skips the liveness scan. 0 means
	// unknown; Switch.SetPortLive invalidates every slot's cache on any
	// liveness flip (failovers are rare, packets are not).
	ffLive int16
}

// Bytes estimates the hardware footprint of the group entry, mirroring the
// ofp_group_mod wire format: 16-byte base, 16 bytes per bucket header plus
// 8 bytes per action.
func (g *GroupEntry) Bytes() int {
	n := 16
	for _, b := range g.Buckets {
		n += 16 + 8*len(b.Actions)
	}
	return n
}

// apply executes the group against the packet per its type semantics.
func (s *groupSlot) apply(x *ExecContext, p *Packet) {
	g := s.g
	switch g.Type {
	case GroupAll:
		for i := range g.Buckets {
			c := p.ClonePooled()
			x.step(g, i)
			s.hits[i]++
			for _, a := range g.Buckets[i].Actions {
				applyAction(x, a, c)
			}
			if x.pend > 0 && x.res.Emissions[x.pend-1].Pkt == c {
				// The bucket clone's final emission is still deferred:
				// hand the clone to the emission instead of snapshotting
				// and releasing it.
				x.pend = 0
			} else {
				c.Release()
			}
		}
	case GroupIndirect:
		if len(g.Buckets) > 0 {
			x.step(g, 0)
			s.hits[0]++
			for _, a := range g.Buckets[0].Actions {
				applyAction(x, a, p)
			}
		}
	case GroupFF:
		i := int(s.ffLive) - 1
		if i < 0 {
			for j := range g.Buckets {
				if w := g.Buckets[j].WatchPort; w == WatchNone || x.sw.PortLive(w) {
					i = j
					s.ffLive = int16(j + 1)
					break
				}
			}
		}
		if i < 0 {
			x.step(g, -1)
			return
		}
		b := &g.Buckets[i]
		x.step(g, i)
		s.hits[i]++
		for _, a := range b.Actions {
			applyAction(x, a, p)
		}
	case GroupSelectRR:
		if len(g.Buckets) == 0 {
			return
		}
		i := int(s.rr)
		s.rr = int32((i + 1) % len(g.Buckets))
		x.step(g, i)
		s.hits[i]++
		for _, a := range g.Buckets[i].Actions {
			applyAction(x, a, p)
		}
	}
}
