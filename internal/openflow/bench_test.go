package openflow

import (
	"fmt"
	"testing"
)

func BenchmarkFieldLoadStore(b *testing.B) {
	tag := make([]byte, 64)
	f := Field{Off: 137, Bits: 13}
	b.Run("store", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			f.Store(tag, uint64(i))
		}
	})
	b.Run("load", func(b *testing.B) {
		var sink uint64
		for i := 0; i < b.N; i++ {
			sink += f.Load(tag)
		}
		_ = sink
	})
}

func BenchmarkMatch(b *testing.B) {
	p := NewPacket(0x88B5, 32)
	p.InPort = 3
	f1 := Field{Off: 0, Bits: 8}
	f2 := Field{Off: 100, Bits: 5}
	p.Store(f1, 17)
	p.Store(f2, 9)
	m := MatchEth(0x88B5).WithInPort(3).WithField(f1, 17).WithField(f2, 9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !m.Matches(p) {
			b.Fatal("must match")
		}
	}
}

// BenchmarkTableLookup measures lookup cost against table size — relevant
// because the SmartSouth compiler installs O(Δ²) rules per node.
func BenchmarkTableLookup(b *testing.B) {
	f := Field{Off: 0, Bits: 16}
	for _, size := range []int{16, 128, 1024} {
		b.Run(fmt.Sprintf("entries=%d", size), func(b *testing.B) {
			t := &FlowTable{}
			for i := 0; i < size; i++ {
				t.Add(&FlowEntry{Priority: i, Match: MatchAll().WithField(f, uint64(i)), Goto: NoGoto})
			}
			p := NewPacket(1, 4)
			p.Store(f, uint64(size-1)) // highest priority: first checked
			worst := NewPacket(1, 4)
			worst.Store(f, 0) // lowest priority: last checked
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if t.Lookup(p) == nil || t.Lookup(worst) == nil {
					b.Fatal("lookup failed")
				}
			}
		})
	}
}

// BenchmarkTableLookupIndexed measures lookup with exact-EtherType rules —
// the shape every SmartSouth-compiled rule has — against how many services
// share the table. The table is compiled, as every installed table now is:
// the matcher keys the probe by (EtherType, InPort) and then by the
// discriminating field value, so the worst-case in-bucket scan collapses
// to a single candidate and cost stays flat as services multiply.
func BenchmarkTableLookupIndexed(b *testing.B) {
	f := Field{Off: 0, Bits: 16}
	const rulesPerService = 16
	build := func(services int) *FlowTable {
		t := &FlowTable{}
		for s := 0; s < services; s++ {
			eth := uint16(0x0900 + s)
			for i := 0; i < rulesPerService; i++ {
				t.Add(&FlowEntry{Priority: i,
					Match: MatchEth(eth).WithInPort(1).WithField(f, uint64(i)),
					Goto:  NoGoto})
			}
		}
		return t
	}
	// Worst case within the bucket: the lowest-priority rule.
	probe := func(b *testing.B, t *FlowTable) {
		p := NewPacket(0x0900, 4)
		p.InPort = 1
		p.Store(f, 0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if t.Lookup(p) == nil {
				b.Fatal("lookup failed")
			}
		}
	}
	for _, services := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("services=%d", services), func(b *testing.B) {
			t := build(services)
			t.Compile()
			probe(b, t)
		})
	}
}

// BenchmarkPipeline runs a 3-table pipeline with a fast-failover group,
// approximating one SmartSouth hop.
func BenchmarkPipeline(b *testing.B) {
	sw := NewSwitch(1, 8)
	fC := Field{Off: 0, Bits: 4}
	sw.AddGroup(&GroupEntry{ID: 1, Type: GroupFF, Buckets: []Bucket{
		{WatchPort: 3, Actions: []Action{SetField{F: fC, Value: 3}, Output{Port: 3}}},
		{WatchPort: WatchNone, Actions: []Action{Output{Port: 1}}},
	}})
	sw.AddFlow(0, &FlowEntry{Priority: 1, Match: MatchEth(0x8801), Goto: 1, Cookie: "t0"})
	sw.AddFlow(1, &FlowEntry{Priority: 1, Match: MatchAll().WithInPort(2), Goto: 2, Cookie: "t1",
		Actions: []Action{SetField{F: fC, Value: 1}}})
	sw.AddFlow(2, &FlowEntry{Priority: 1, Match: MatchAll(), Goto: NoGoto, Cookie: "t2",
		Actions: []Action{Group{ID: 1}}})
	pkt := NewPacket(0x8801, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := sw.Receive(pkt, 2)
		if len(res.Emissions) != 1 {
			b.Fatal("bad pipeline")
		}
	}
}

// BenchmarkSmartCounterGroup measures the fetch-and-increment primitive.
func BenchmarkSmartCounterGroup(b *testing.B) {
	sw := NewSwitch(1, 2)
	f := Field{Off: 0, Bits: 3}
	buckets := make([]Bucket, 8)
	for j := range buckets {
		buckets[j] = Bucket{Actions: []Action{SetField{F: f, Value: uint64(j)}}}
	}
	sw.AddGroup(&GroupEntry{ID: 1, Type: GroupSelectRR, Buckets: buckets})
	sw.AddFlow(0, &FlowEntry{Priority: 1, Match: MatchAll(), Goto: NoGoto,
		Actions: []Action{Group{ID: 1}}, Cookie: "ctr"})
	pkt := NewPacket(1, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sw.Receive(pkt, 1)
	}
}

func BenchmarkPacketClone(b *testing.B) {
	p := NewPacket(1, 64)
	for i := 0; i < 32; i++ {
		p.PushLabel(uint32(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = p.Clone()
	}
}
