package openflow

import "testing"

var fX = Field{Name: "x", Off: 0, Bits: 8}
var fY = Field{Name: "y", Off: 8, Bits: 8}

func testPacket() *Packet { return NewPacket(0x88B5, 4) }

func TestMatchSemantics(t *testing.T) {
	p := testPacket()
	p.InPort = 3
	p.Store(fX, 7)

	cases := []struct {
		name string
		m    Match
		want bool
	}{
		{"wildcard", MatchAll(), true},
		{"eth hit", MatchEth(0x88B5), true},
		{"eth miss", MatchEth(0x0800), false},
		{"inport hit", MatchAll().WithInPort(3), true},
		{"inport miss", MatchAll().WithInPort(4), false},
		{"field hit", MatchAll().WithField(fX, 7), true},
		{"field miss", MatchAll().WithField(fX, 8), false},
		{"masked hit", MatchAll().WithMasked(fX, 0x07, 0x03), true}, // low 2 bits = 3
		{"masked miss", MatchAll().WithMasked(fX, 0x00, 0x03), false},
		{"ttl hit", MatchAll().WithTTL(255), true},
		{"ttl miss", MatchAll().WithTTL(0), false},
		{"combined", MatchEth(0x88B5).WithInPort(3).WithField(fX, 7), true},
	}
	for _, c := range cases {
		if got := c.m.Matches(p); got != c.want {
			t.Errorf("%s: Matches=%v, want %v", c.name, got, c.want)
		}
	}
}

func TestWithFieldDoesNotAliasParent(t *testing.T) {
	base := MatchEth(1).WithField(fX, 1)
	m1 := base.WithField(fY, 2)
	m2 := base.WithField(fY, 3)
	p := NewPacket(1, 4)
	p.Store(fX, 1)
	p.Store(fY, 2)
	if !m1.Matches(p) {
		t.Error("m1 should match")
	}
	if m2.Matches(p) {
		t.Error("m2 must not match (derived matches must not share field storage)")
	}
}

func TestFlowTablePriorityAndMiss(t *testing.T) {
	sw := NewSwitch(1, 4)
	sw.AddFlow(0, &FlowEntry{Priority: 1, Match: MatchAll(), Goto: NoGoto,
		Actions: []Action{Output{Port: 1}}, Cookie: "low"})
	sw.AddFlow(0, &FlowEntry{Priority: 10, Match: MatchAll().WithInPort(2), Goto: NoGoto,
		Actions: []Action{Output{Port: 3}}, Cookie: "high"})

	res := sw.Receive(testPacket(), 2)
	if len(res.Emissions) != 1 || res.Emissions[0].Port != 3 {
		t.Fatalf("want high-priority rule (port 3), got %+v", res.Emissions)
	}
	res = sw.Receive(testPacket(), 1)
	if len(res.Emissions) != 1 || res.Emissions[0].Port != 1 {
		t.Fatalf("want low rule (port 1), got %+v", res.Emissions)
	}

	// A packet of a different EthType still matches the wildcard; narrow
	// the low rule and verify table miss drops.
	sw2 := NewSwitch(2, 4)
	sw2.AddFlow(0, &FlowEntry{Priority: 1, Match: MatchEth(0x0800), Goto: NoGoto, Cookie: "v4-only"})
	res = sw2.Receive(testPacket(), 1)
	if res.Matched || len(res.Emissions) != 0 {
		t.Fatalf("want unmatched drop, got %+v", res)
	}
}

func TestPipelineGotoAndApplyOrder(t *testing.T) {
	sw := NewSwitch(1, 4)
	// Table 0: set x:=5, output port 1 (with x=5), then goto table 2 which
	// sets x:=9 and outputs port 2. Apply-actions semantics: the copy on
	// port 1 must carry x=5, the copy on port 2 x=9.
	sw.AddFlow(0, &FlowEntry{Priority: 1, Match: MatchAll(), Goto: 2, Cookie: "t0",
		Actions: []Action{SetField{F: fX, Value: 5}, Output{Port: 1}}})
	sw.AddFlow(2, &FlowEntry{Priority: 1, Match: MatchAll(), Goto: NoGoto, Cookie: "t2",
		Actions: []Action{SetField{F: fX, Value: 9}, Output{Port: 2}}})

	res := sw.Receive(testPacket(), 4)
	if len(res.Emissions) != 2 {
		t.Fatalf("want 2 emissions, got %d", len(res.Emissions))
	}
	if res.Emissions[0].Port != 1 || res.Emissions[0].Pkt.Load(fX) != 5 {
		t.Errorf("first emission: got port %d x=%d, want port 1 x=5",
			res.Emissions[0].Port, res.Emissions[0].Pkt.Load(fX))
	}
	if res.Emissions[1].Port != 2 || res.Emissions[1].Pkt.Load(fX) != 9 {
		t.Errorf("second emission: got port %d x=%d, want port 2 x=9",
			res.Emissions[1].Port, res.Emissions[1].Pkt.Load(fX))
	}
}

func TestBackwardGotoStops(t *testing.T) {
	sw := NewSwitch(1, 2)
	sw.AddFlow(0, &FlowEntry{Priority: 1, Match: MatchAll(), Goto: 0, Cookie: "loop"})
	res := sw.Receive(testPacket(), 1) // must terminate
	if !res.Matched {
		t.Error("entry should have matched once")
	}
}

func TestOutputInPortAndDrop(t *testing.T) {
	sw := NewSwitch(1, 4)
	sw.AddFlow(0, &FlowEntry{Priority: 1, Match: MatchAll(), Goto: NoGoto, Cookie: "bounce",
		Actions: []Action{Output{Port: PortDrop}, Output{Port: PortInPort}}})
	res := sw.Receive(testPacket(), 3)
	if len(res.Emissions) != 1 || res.Emissions[0].Port != 3 {
		t.Fatalf("want bounce to port 3 only, got %+v", res.Emissions)
	}
}

func TestGroupFastFailover(t *testing.T) {
	sw := NewSwitch(1, 3)
	sw.AddGroup(&GroupEntry{ID: 7, Type: GroupFF, Buckets: []Bucket{
		{WatchPort: 1, Actions: []Action{Output{Port: 1}}},
		{WatchPort: 2, Actions: []Action{Output{Port: 2}}},
		{WatchPort: WatchNone, Actions: []Action{Output{Port: PortController}}},
	}})
	sw.AddFlow(0, &FlowEntry{Priority: 1, Match: MatchAll(), Goto: NoGoto,
		Actions: []Action{Group{ID: 7}}, Cookie: "ff"})

	if res := sw.Receive(testPacket(), 3); res.Emissions[0].Port != 1 {
		t.Fatalf("all live: want port 1, got %d", res.Emissions[0].Port)
	}
	sw.SetPortLive(1, false)
	if res := sw.Receive(testPacket(), 3); res.Emissions[0].Port != 2 {
		t.Fatalf("port1 down: want port 2, got %d", res.Emissions[0].Port)
	}
	sw.SetPortLive(2, false)
	if res := sw.Receive(testPacket(), 3); res.Emissions[0].Port != PortController {
		t.Fatalf("both down: want controller bucket, got %d", res.Emissions[0].Port)
	}
	sw.SetPortLive(1, true)
	if res := sw.Receive(testPacket(), 3); res.Emissions[0].Port != 1 {
		t.Fatalf("port1 back up: want port 1, got %d", res.Emissions[0].Port)
	}
}

func TestGroupSelectRoundRobinIsAFetchAndIncrement(t *testing.T) {
	sw := NewSwitch(1, 2)
	const k = 5
	buckets := make([]Bucket, k)
	for i := range buckets {
		buckets[i] = Bucket{Actions: []Action{SetField{F: fX, Value: uint64(i)}}}
	}
	sw.AddGroup(&GroupEntry{ID: 1, Type: GroupSelectRR, Buckets: buckets})
	sw.AddFlow(0, &FlowEntry{Priority: 1, Match: MatchAll(), Goto: NoGoto,
		Actions: []Action{Group{ID: 1}, Output{Port: 1}}, Cookie: "ctr"})

	// 12 packets through a 5-bucket counter: values 0,1,2,3,4,0,1,...
	for i := 0; i < 12; i++ {
		res := sw.Receive(testPacket(), 2)
		got := res.Emissions[0].Pkt.Load(fX)
		if got != uint64(i%k) {
			t.Fatalf("packet %d: counter value %d, want %d", i, got, i%k)
		}
	}
	if v, ok := sw.CounterValue(1); !ok || v != 12%k {
		t.Errorf("stored counter = %d (installed %v), want %d", v, ok, 12%k)
	}
}

func TestGroupAllClonesPerBucket(t *testing.T) {
	sw := NewSwitch(1, 2)
	sw.AddGroup(&GroupEntry{ID: 2, Type: GroupAll, Buckets: []Bucket{
		{Actions: []Action{SetField{F: fX, Value: 1}, Output{Port: 1}}},
		{Actions: []Action{Output{Port: 2}}},
	}})
	sw.AddFlow(0, &FlowEntry{Priority: 1, Match: MatchAll(), Goto: NoGoto,
		Actions: []Action{Group{ID: 2}}, Cookie: "all"})
	res := sw.Receive(testPacket(), 2)
	if len(res.Emissions) != 2 {
		t.Fatalf("want 2 emissions, got %d", len(res.Emissions))
	}
	if res.Emissions[0].Pkt.Load(fX) != 1 {
		t.Error("bucket 0 copy should carry x=1")
	}
	if res.Emissions[1].Pkt.Load(fX) != 0 {
		t.Error("bucket 1 copy must not see bucket 0's mutation")
	}
}

func TestGroupChainingDepthBounded(t *testing.T) {
	sw := NewSwitch(1, 2)
	// Two groups that invoke each other: must terminate by depth limit.
	sw.AddGroup(&GroupEntry{ID: 1, Type: GroupIndirect, Buckets: []Bucket{{Actions: []Action{Group{ID: 2}}}}})
	sw.AddGroup(&GroupEntry{ID: 2, Type: GroupIndirect, Buckets: []Bucket{{Actions: []Action{Group{ID: 1}}}}})
	sw.AddFlow(0, &FlowEntry{Priority: 1, Match: MatchAll(), Goto: NoGoto,
		Actions: []Action{Group{ID: 1}}, Cookie: "chain"})
	sw.Receive(testPacket(), 1) // must not hang or panic
}

func TestLabelsAndTTL(t *testing.T) {
	sw := NewSwitch(1, 2)
	sw.AddFlow(0, &FlowEntry{Priority: 1, Match: MatchAll(), Goto: NoGoto, Cookie: "rec",
		Actions: []Action{PushLabel{Value: 0xABC}, PushLabel{Value: 0xDEF}, PopLabel{}, DecTTL{}, Output{Port: 1}}})
	p := testPacket()
	p.TTL = 3
	res := sw.Receive(p, 2)
	out := res.Emissions[0].Pkt
	if len(out.Labels) != 1 || out.Labels[0] != 0xABC {
		t.Errorf("labels = %v, want [0xABC]", out.Labels)
	}
	if out.TTL != 2 {
		t.Errorf("TTL = %d, want 2", out.TTL)
	}
	if p.TTL != 3 {
		t.Error("caller's packet must not be mutated")
	}
}

func TestDecTTLAtZeroIsNoop(t *testing.T) {
	sw := NewSwitch(1, 1)
	sw.AddFlow(0, &FlowEntry{Priority: 1, Match: MatchAll(), Goto: NoGoto, Cookie: "d",
		Actions: []Action{DecTTL{}, Output{Port: 1}}})
	p := testPacket()
	p.TTL = 0
	res := sw.Receive(p, 1)
	if res.Emissions[0].Pkt.TTL != 0 {
		t.Error("TTL must stay 0")
	}
}

func TestCountersAndConfigBytes(t *testing.T) {
	sw := NewSwitch(1, 2)
	e := &FlowEntry{Priority: 1, Match: MatchEth(0x88B5).WithInPort(1), Goto: NoGoto,
		Actions: []Action{Output{Port: 2}}, Cookie: "fwd"}
	sw.AddFlow(0, e)
	for i := 0; i < 3; i++ {
		sw.Receive(testPacket(), 1)
	}
	if got := sw.Table(0).hits[0]; got != 3 {
		t.Errorf("entry counter = %d, want 3", got)
	}
	if sw.RxPackets[1] != 3 || sw.TxPackets[2] != 3 {
		t.Errorf("port counters rx=%d tx=%d, want 3/3", sw.RxPackets[1], sw.TxPackets[2])
	}
	if got, want := e.EntryBytes(), 56+8*2+8*1; got != want {
		t.Errorf("EntryBytes = %d, want %d", got, want)
	}
	if sw.ConfigBytes() <= 0 || sw.FlowEntryCount() != 1 {
		t.Error("config accounting broken")
	}
}

func TestPacketSizeModel(t *testing.T) {
	p := NewPacket(1, 10)
	p.PushLabel(1)
	p.PushLabel(2)
	p.Payload = []byte("abcde")
	if got, want := p.Size(), 14+1+10+8+5; got != want {
		t.Errorf("Size = %d, want %d", got, want)
	}
}
