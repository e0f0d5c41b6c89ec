package openflow

import "testing"

// TestProgramMaterializeClonesState: two switches materialized from one
// program share its rules and nothing else.
func TestProgramMaterializeClonesState(t *testing.T) {
	p := NewProgram("test", 0)
	p.Ensure(0, 2)
	f := Field{Name: "f", Off: 0, Bits: 4}
	p.AddFlow(0, 0, &FlowEntry{
		Priority: 10, Match: MatchEth(0x8801),
		Actions: []Action{Group{ID: 7}}, Goto: NoGoto, Cookie: "test/n0/x",
	})
	p.AddGroup(0, &GroupEntry{ID: 7, Type: GroupSelectRR, Buckets: []Bucket{
		{Actions: []Action{SetField{F: f, Value: 0}}},
		{Actions: []Action{SetField{F: f, Value: 1}}},
	}})

	sw1 := NewSwitch(0, 2)
	sw2 := NewSwitch(0, 2)
	p.At(0).Materialize(sw1)
	p.At(0).Materialize(sw2)

	pkt := &Packet{EthType: 0x8801}
	sw1.Receive(pkt, PortController)

	// sw1's entry counter and group round-robin pointer moved; sw2 must be
	// untouched (the program has no state to touch).
	if got := sw1.Table(0).hits[0]; got != 1 {
		t.Fatalf("sw1 entry packets = %d, want 1", got)
	}
	if got := sw2.Table(0).hits[0]; got != 0 {
		t.Fatalf("sw2 entry packets = %d, want 0 (state shared with sw1)", got)
	}
	v1, _ := sw1.CounterValue(7)
	v2, _ := sw2.CounterValue(7)
	if v1 != 1 || v2 != 0 {
		t.Fatalf("group counters = %d, %d; want 1, 0", v1, v2)
	}
	if h1, h2 := sw1.BucketHits(7), sw2.BucketHits(7); h1[0] != 1 || h2[0] != 0 {
		t.Fatalf("bucket 0 packets = %d, %d; want 1, 0", h1[0], h2[0])
	}
	// What is private is the counters, not the rules: both switches hold
	// the program's own entries.
	if g0 := p.At(0).Groups[0]; sw1.GroupByID(7) != g0 || sw2.GroupByID(7) != g0 {
		t.Error("materialized group entries are copies, not the program's")
	}
	if e0 := p.At(0).Flows[0].Entry; sw1.Table(0).entries[0] != e0 || sw2.Table(0).entries[0] != e0 {
		t.Error("materialized flow entries are copies, not the program's")
	}
}

// TestStateTableAddBatchMatchesSequentialAdd: a batched insert must leave
// the transitions in the order one sorted Add per entry produces —
// priority descending, insertion order among equals — also when the table
// already holds entries.
func TestStateTableAddBatchMatchesSequentialAdd(t *testing.T) {
	prios := []int{5, 9, 5, 1, 9, 7, 5, 1, 9, 3}
	entries := func() []*StateEntry {
		es := make([]*StateEntry, len(prios))
		for i, pr := range prios {
			es[i] = &StateEntry{Priority: pr, Cookie: string(rune('a' + i))}
		}
		return es
	}
	order := func(st *StateTable) string {
		var s string
		for _, e := range st.Entries() {
			s += e.Cookie
		}
		return s
	}
	for _, held := range []int{0, 1, 4} { // entries added before the batch
		one, batch := NewStateTable(1, nil), NewStateTable(1, nil)
		es := entries()
		for _, e := range es {
			one.Add(e)
		}
		es = entries()
		for _, e := range es[:held] {
			batch.Add(e)
		}
		batch.AddBatch(es[held:])
		if got, want := order(batch), order(one); got != want {
			t.Errorf("%d held + batch: order %q, one by one %q", held, got, want)
		}
	}
}

func TestProgramAccountingMatchesSwitchWalk(t *testing.T) {
	p := NewProgram("test", 3)
	p.Ensure(1, 4)
	p.Ensure(2, 4)
	p.AddFlow(1, 0, &FlowEntry{Priority: 1, Match: MatchEth(0x8801), Goto: NoGoto})
	p.AddFlow(1, 5, &FlowEntry{Priority: 2, Match: MatchEth(0x8801).WithInPort(1), Goto: NoGoto})
	p.AddFlow(2, 0, &FlowEntry{Priority: 1, Match: MatchEth(0x8801), Goto: NoGoto})
	p.AddGroup(2, &GroupEntry{ID: 9, Type: GroupIndirect, Buckets: []Bucket{{Actions: []Action{Output{Port: 1}}}}})

	if p.FlowCount() != 3 || p.GroupCount() != 1 {
		t.Fatalf("counts = %d flows, %d groups; want 3, 1", p.FlowCount(), p.GroupCount())
	}
	if ids := p.SwitchIDs(); len(ids) != 2 || ids[0] != 1 || ids[1] != 2 {
		t.Fatalf("SwitchIDs = %v", ids)
	}
	if !p.CoversSlot(3) || p.CoversSlot(2) || p.CoversSlot(4) {
		t.Fatalf("CoversSlot wrong for single-slot program at slot 3")
	}

	total := 0
	for _, id := range p.SwitchIDs() {
		sw := NewSwitch(id, p.At(id).NumPorts)
		p.At(id).Materialize(sw)
		total += sw.ConfigBytes()
	}
	if p.Bytes() != total {
		t.Fatalf("Program.Bytes = %d, switch walk = %d", p.Bytes(), total)
	}
}
