package openflow

import (
	"strings"
	"testing"
)

func TestActionStrings(t *testing.T) {
	f := Field{Name: "x", Off: 2, Bits: 3}
	cases := []struct {
		a    Action
		want string
	}{
		{Output{Port: 3}, "output:3"},
		{Output{Port: PortController}, "output:controller"},
		{Output{Port: PortSelf}, "output:self"},
		{Output{Port: PortInPort}, "output:in_port"},
		{Output{Port: PortDrop}, "output:drop"},
		{SetField{F: f, Value: 5}, "set(x[2:5]:=5)"},
		{PushLabel{Value: 0xAB}, "push(0xab)"},
		{PopLabel{}, "pop"},
		{DecTTL{}, "dec_ttl"},
		{Group{ID: 7}, "group:7"},
	}
	for _, c := range cases {
		if got := c.a.String(); got != c.want {
			t.Errorf("%T: %q, want %q", c.a, got, c.want)
		}
	}
}

func TestMatchAndFieldStrings(t *testing.T) {
	f := Field{Name: "gid", Off: 0, Bits: 16}
	anon := Field{Off: 3, Bits: 2}
	if got := MatchAll().String(); got != "*" {
		t.Errorf("wildcard match: %q", got)
	}
	m := MatchEth(0x8801).WithInPort(2).WithTTL(9).WithField(f, 4).WithMasked(anon, 1, 0b01)
	s := m.String()
	for _, want := range []string{"in=2", "eth=0x8801", "ttl=9", "gid[0:16]=4", "tag[3:5]&0x1=1"} {
		if !strings.Contains(s, want) {
			t.Errorf("match string %q missing %q", s, want)
		}
	}
	if !strings.Contains(f.String(), "gid[0:16]") || !strings.Contains(anon.String(), "tag[3:5]") {
		t.Error("field strings")
	}
	if (Field{}).Valid() || !f.Valid() {
		t.Error("Valid()")
	}
	if (Field{Off: 0, Bits: 64}).Max() != ^uint64(0) {
		t.Error("64-bit max")
	}
}

func TestEntryGroupTypePacketStrings(t *testing.T) {
	e := &FlowEntry{Priority: 5, Match: MatchEth(1), Goto: 3, Cookie: "abc"}
	if s := e.String(); !strings.Contains(s, "prio=5") || !strings.Contains(s, "abc") {
		t.Errorf("entry string %q", s)
	}
	for typ, want := range map[GroupType]string{
		GroupAll: "all", GroupIndirect: "indirect", GroupFF: "ff", GroupSelectRR: "select-rr",
	} {
		if typ.String() != want {
			t.Errorf("group type %d: %q", typ, typ.String())
		}
	}
	p := NewPacket(0x8801, 4)
	if s := p.String(); !strings.Contains(s, "eth=0x8801") {
		t.Errorf("packet string %q", s)
	}
}

// TestRecordedStepsNameRulesAndBuckets: with Record on, a result lists the
// matched rules and the bucket choices in execution order, and a group
// that is not installed shows as a drop (Bucket -1).
func TestRecordedStepsNameRulesAndBuckets(t *testing.T) {
	sw := NewSwitch(1, 2)
	sw.Record = true
	sw.AddGroup(&GroupEntry{ID: 1, Type: GroupFF, Buckets: []Bucket{
		{WatchPort: 1, Actions: []Action{Output{Port: 1}}},
	}})
	sw.AddFlow(0, &FlowEntry{Priority: 1, Match: MatchAll(), Goto: 1, Cookie: "hop1",
		Actions: []Action{Group{ID: 1}}})
	res := sw.Receive(NewPacket(1, 1), 2)
	if len(res.Steps) != 1 || res.Steps[0].Cookie != "hop1" || res.Steps[0].Table != 0 {
		t.Errorf("steps %+v, want the one hit of hop1 in table 0", res.Steps)
	}
	if len(res.GroupSteps) != 1 || res.GroupSteps[0] != (GroupStep{Group: 1, Type: GroupFF, Bucket: 0}) {
		t.Errorf("group steps %+v, want group 1 bucket 0", res.GroupSteps)
	}

	sw2 := NewSwitch(2, 1)
	sw2.Record = true
	sw2.AddFlow(0, &FlowEntry{Priority: 1, Match: MatchAll(), Goto: NoGoto, Cookie: "g",
		Actions: []Action{Group{ID: 99}}})
	res2 := sw2.Receive(NewPacket(1, 1), 1)
	if len(res2.GroupSteps) != 1 || res2.GroupSteps[0].Group != 99 || res2.GroupSteps[0].Bucket != -1 {
		t.Errorf("group steps %+v, want a drop at the uninstalled group 99", res2.GroupSteps)
	}
	if res2.LastGroup != 99 || res2.LastBucket != -1 || len(res2.Emissions) != 0 {
		t.Errorf("uninstalled group: last=%d/%d emissions=%d", res2.LastGroup, res2.LastBucket, len(res2.Emissions))
	}
}

func TestCounterValueAndGroupBytes(t *testing.T) {
	g := &GroupEntry{ID: 1, Type: GroupSelectRR, Buckets: []Bucket{
		{Actions: []Action{SetField{F: Field{Off: 0, Bits: 2}, Value: 0}}},
		{Actions: []Action{SetField{F: Field{Off: 0, Bits: 2}, Value: 1}}},
	}}
	sw := NewSwitch(1, 2)
	sw.AddGroup(g)
	if v, ok := sw.CounterValue(1); !ok || v != 0 {
		t.Errorf("counter = %d (installed %v), want 0 on a fresh group", v, ok)
	}
	if got, want := g.Bytes(), 16+2*(16+8); got != want {
		t.Errorf("Bytes = %d, want %d", got, want)
	}
	if _, ok := sw.CounterValue(3); ok {
		t.Error("CounterValue reports a group that is not installed")
	}
}

func TestTableIDsAndGroupsAccessors(t *testing.T) {
	sw := NewSwitch(1, 2)
	sw.AddFlow(5, &FlowEntry{Priority: 1, Match: MatchAll(), Goto: NoGoto})
	sw.AddFlow(2, &FlowEntry{Priority: 1, Match: MatchAll(), Goto: NoGoto})
	_ = sw.Table(9) // created but empty: must not appear
	ids := sw.TableIDs()
	if len(ids) != 2 || ids[0] != 2 || ids[1] != 5 {
		t.Errorf("TableIDs = %v", ids)
	}
	sw.AddGroup(&GroupEntry{ID: 30})
	sw.AddGroup(&GroupEntry{ID: 10})
	gs := sw.Groups()
	if len(gs) != 2 || gs[0].ID != 10 || gs[1].ID != 30 {
		t.Errorf("Groups order: %v %v", gs[0].ID, gs[1].ID)
	}
	if es := sw.Table(2).Entries(); len(es) != 1 {
		t.Errorf("Entries = %d", len(es))
	}
}

func TestFieldMatchMaskedString(t *testing.T) {
	f := Field{Off: 0, Bits: 8}
	fm := FieldMatch{F: f, Value: 0xF3, Mask: 0x0F}
	if s := fm.String(); !strings.Contains(s, "&0xf=3") {
		t.Errorf("masked field match string: %q", s)
	}
}
