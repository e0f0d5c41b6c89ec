package dump

import (
	"encoding/json"
	"reflect"
	"testing"

	"smartsouth/internal/openflow"
)

// buildRichProgram exercises every encodable construct: all match
// dimensions, all six action kinds, all four group types, multi-switch,
// multi-slot, transient.
func buildRichProgram() *openflow.Program {
	f := openflow.Field{Name: "st", Off: 3, Bits: 5}
	p := openflow.NewProgram("rich", 2)
	p.Slots = 2
	p.TagBytes = 4
	p.Transient = true

	p.Ensure(0, 3)
	p.AddFlow(0, 0, &openflow.FlowEntry{
		Priority: 101,
		Match:    openflow.MatchEth(0x8801).WithInPort(2).WithTTL(7).WithField(f, 9),
		Goto:     21,
		Cookie:   "rich/dispatch",
	})
	p.AddFlow(0, 21, &openflow.FlowEntry{
		Priority: 50,
		Match: openflow.Match{InPort: openflow.AnyPort, EthType: openflow.AnyEthType,
			TTL: openflow.AnyTTL, Fields: []openflow.FieldMatch{{F: f, Value: 4, Mask: 0x6}}},
		Actions: []openflow.Action{
			openflow.SetField{F: f, Value: 11},
			openflow.PushLabel{Value: 0xabcdef},
			openflow.PopLabel{},
			openflow.DecTTL{},
			openflow.Group{ID: 41},
			openflow.Output{Port: openflow.PortController},
		},
		Goto:   openflow.NoGoto,
		Cookie: "rich/work",
	})
	p.AddGroup(0, &openflow.GroupEntry{ID: 41, Type: openflow.GroupFF, Buckets: []openflow.Bucket{
		{WatchPort: 1, Actions: []openflow.Action{openflow.Output{Port: 1}}},
		{WatchPort: openflow.WatchNone, Actions: []openflow.Action{openflow.Output{Port: openflow.PortInPort}}},
	}})
	p.AddGroup(0, &openflow.GroupEntry{ID: 42, Type: openflow.GroupSelectRR, Buckets: []openflow.Bucket{
		{Actions: []openflow.Action{openflow.SetField{F: f, Value: 0}}},
		{Actions: []openflow.Action{openflow.SetField{F: f, Value: 1}}},
	}})

	// A keyed state table: exact-state, masked-state and any-state
	// transitions, with and without a state write.
	three := uint64(3)
	p.SetStateKey(0, 22, []openflow.Field{{Name: "cli", Off: 0, Bits: 9}})
	p.AddState(0, 22, &openflow.StateEntry{
		Priority: 30, State: 1, Match: openflow.MatchEth(0x8801),
		Actions:  []openflow.Action{openflow.Output{Port: 1}},
		SetState: &three, Goto: 23, Cookie: "rich/step",
	})
	p.AddState(0, 22, &openflow.StateEntry{
		Priority: 20, State: 2, StateMask: 0x6, Match: openflow.MatchAll(),
		Actions: []openflow.Action{openflow.DecTTL{}},
		Goto:    openflow.NoGoto, Cookie: "rich/masked",
	})
	p.AddState(0, 22, &openflow.StateEntry{
		Priority: 10, AnyState: true, Match: openflow.MatchAll(),
		Actions: []openflow.Action{openflow.Output{Port: openflow.PortDrop}},
		Goto:    openflow.NoGoto, Cookie: "rich/reset",
	})

	p.Ensure(5, 1)
	p.AddFlow(5, 0, &openflow.FlowEntry{
		Priority: 1, Match: openflow.MatchAll(), Goto: openflow.NoGoto,
		Actions: []openflow.Action{openflow.Output{Port: openflow.PortDrop}},
		Cookie:  "rich/sink",
	})
	p.AddGroup(5, &openflow.GroupEntry{ID: 43, Type: openflow.GroupAll, Buckets: []openflow.Bucket{
		{Actions: []openflow.Action{openflow.Output{Port: 1}}},
	}})
	p.AddGroup(5, &openflow.GroupEntry{ID: 44, Type: openflow.GroupIndirect, Buckets: []openflow.Bucket{
		{Actions: []openflow.Action{openflow.Output{Port: openflow.PortSelf}}},
	}})
	// A keyless state table: one global cell per switch.
	p.AddState(5, 11, &openflow.StateEntry{
		Priority: 5, AnyState: true, Match: openflow.MatchEth(0x8802),
		Actions: []openflow.Action{openflow.Output{Port: openflow.PortController}},
		Goto:    openflow.NoGoto, Cookie: "rich/global",
	})
	return p
}

// marshalProgram encodes one program as a single JSON object, the shape
// UnmarshalPrograms accepts beside the deployment array.
func marshalProgram(p *openflow.Program) ([]byte, error) {
	pj, err := encodeProgram(p)
	if err != nil {
		return nil, err
	}
	return json.MarshalIndent(pj, "", "  ")
}

// unmarshalProgram decodes one program object.
func unmarshalProgram(data []byte) (*openflow.Program, error) {
	var pj programJSON
	if err := json.Unmarshal(data, &pj); err != nil {
		return nil, err
	}
	return decodeProgram(pj)
}

func TestProgramJSONRoundTrip(t *testing.T) {
	p := buildRichProgram()
	raw, err := marshalProgram(p)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	q, err := unmarshalProgram(raw)
	if err != nil {
		t.Fatalf("unmarshal: %v\n%s", err, raw)
	}

	if q.Service != p.Service || q.Slot != p.Slot || q.Slots != p.Slots ||
		q.TagBytes != p.TagBytes || q.Transient != p.Transient {
		t.Errorf("header changed: %+v vs %+v", q, p)
	}
	if !reflect.DeepEqual(q.SwitchIDs(), p.SwitchIDs()) {
		t.Fatalf("switch set changed: %v vs %v", q.SwitchIDs(), p.SwitchIDs())
	}
	for _, id := range p.SwitchIDs() {
		sp, sq := p.At(id), q.At(id)
		if sq.NumPorts != sp.NumPorts {
			t.Errorf("sw%d: num ports %d vs %d", id, sq.NumPorts, sp.NumPorts)
		}
		if len(sq.Flows) != len(sp.Flows) {
			t.Fatalf("sw%d: %d flows vs %d", id, len(sq.Flows), len(sp.Flows))
		}
		for i := range sp.Flows {
			ep, eq := sp.Flows[i].Entry, sq.Flows[i].Entry
			if sq.Flows[i].Table != sp.Flows[i].Table ||
				eq.Priority != ep.Priority || eq.Goto != ep.Goto || eq.Cookie != ep.Cookie ||
				!eq.Match.Equal(ep.Match) || !reflect.DeepEqual(eq.Actions, ep.Actions) {
				t.Errorf("sw%d flow %d changed:\n  %+v\n  %+v", id, i, eq, ep)
			}
		}
		if !reflect.DeepEqual(sq.Groups, sp.Groups) {
			t.Errorf("sw%d groups changed:\n  %+v\n  %+v", id, sq.Groups, sp.Groups)
		}
		if !reflect.DeepEqual(sq.States, sp.States) {
			t.Errorf("sw%d state tables changed:\n  %+v\n  %+v", id, sq.States, sp.States)
		}
	}

	// A second trip must be byte-identical: the encoding is canonical.
	raw2, err := marshalProgram(q)
	if err != nil {
		t.Fatalf("re-marshal: %v", err)
	}
	if string(raw) != string(raw2) {
		t.Errorf("encoding is not canonical:\n%s\n---\n%s", raw, raw2)
	}
}

func TestProgramsJSONListAndSingle(t *testing.T) {
	p := buildRichProgram()
	raw, err := MarshalPrograms([]*openflow.Program{p, p})
	if err != nil {
		t.Fatalf("marshal list: %v", err)
	}
	progs, err := UnmarshalPrograms(raw)
	if err != nil {
		t.Fatalf("unmarshal list: %v", err)
	}
	if len(progs) != 2 || progs[0].Service != "rich" {
		t.Fatalf("list decoded to %d programs", len(progs))
	}

	single, err := marshalProgram(p)
	if err != nil {
		t.Fatalf("marshal single: %v", err)
	}
	progs, err = UnmarshalPrograms(single)
	if err != nil {
		t.Fatalf("unmarshal single as deployment: %v", err)
	}
	if len(progs) != 1 || progs[0].FlowCount() != p.FlowCount() {
		t.Fatalf("single-object deployment decoded to %d programs", len(progs))
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	cases := map[string]string{
		"unknown op":     `{"service":"x","slot":0,"slots":1,"switches":[{"switch":0,"num_ports":1,"flows":[{"table":0,"priority":1,"match":{"in_port":-1,"eth_type":-1,"ttl":-1},"actions":[{"op":"teleport"}]}]}]}`,
		"output no port": `{"service":"x","slot":0,"slots":1,"switches":[{"switch":0,"num_ports":1,"flows":[{"table":0,"priority":1,"match":{"in_port":-1,"eth_type":-1,"ttl":-1},"actions":[{"op":"output"}]}]}]}`,
		"bad group type": `{"service":"x","slot":0,"slots":1,"switches":[{"switch":0,"num_ports":1,"groups":[{"id":1,"type":"mystery","buckets":[]}]}]}`,
	}
	for name, raw := range cases {
		if _, err := unmarshalProgram([]byte(raw)); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

// FuzzProgramJSONRoundTrip checks the decode→encode pair is a
// canonicalization fixpoint on arbitrary input: whatever the decoder
// accepts, a second trip through it must reproduce byte-identically.
func FuzzProgramJSONRoundTrip(f *testing.F) {
	seed, err := marshalProgram(buildRichProgram())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(string(seed))
	f.Add(`{"service":"x","slot":0,"slots":1,"switches":[{"switch":0,"num_ports":1,"state_tables":[{"table":3,"entries":[{"priority":1,"any_state":true,"match":{"in_port":-1,"eth_type":-1,"ttl":-1},"set_state":7}]}]}]}`)
	f.Fuzz(func(t *testing.T, raw string) {
		p, err := unmarshalProgram([]byte(raw))
		if err != nil {
			t.Skip()
		}
		enc, err := marshalProgram(p)
		if err != nil {
			t.Fatalf("re-encode of accepted input failed: %v", err)
		}
		q, err := unmarshalProgram(enc)
		if err != nil {
			t.Fatalf("decode of own encoding failed: %v\n%s", err, enc)
		}
		enc2, err := marshalProgram(q)
		if err != nil {
			t.Fatalf("second re-encode failed: %v", err)
		}
		if string(enc) != string(enc2) {
			t.Fatalf("encoding is not a fixpoint:\n%s\n---\n%s", enc, enc2)
		}
	})
}

func TestOmittedGotoIsNoGoto(t *testing.T) {
	raw := `{"service":"x","slot":0,"slots":1,"switches":[{"switch":0,"num_ports":1,"flows":[{"table":0,"priority":1,"match":{"in_port":-1,"eth_type":-1,"ttl":-1}}]}]}`
	p, err := unmarshalProgram([]byte(raw))
	if err != nil {
		t.Fatal(err)
	}
	if g := p.At(0).Flows[0].Entry.Goto; g != openflow.NoGoto {
		t.Fatalf("omitted goto decoded as %d, want NoGoto", g)
	}
}
