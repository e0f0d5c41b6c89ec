package trace

import (
	"strings"
	"testing"

	"smartsouth/internal/network"
	"smartsouth/internal/openflow"
	"smartsouth/internal/topo"
)

func newRecorder(capacity int) (*Recorder, *network.Network) {
	nw := network.New(topo.Ring(10), network.Options{})
	return NewRecorder(nw, capacity), nw
}

func exec(r *Recorder, sw int) {
	pkt := openflow.NewPacket(0x8802, 4)
	r.OnExec(sw, 1, pkt, &openflow.Result{Matched: true})
}

func TestRingRetainsTail(t *testing.T) {
	r, _ := newRecorder(4)
	for i := 0; i < 10; i++ {
		exec(r, i)
	}
	if r.Len() != 4 || r.Total() != 10 || r.Dropped() != 6 {
		t.Fatalf("len=%d total=%d dropped=%d", r.Len(), r.Total(), r.Dropped())
	}
	ev := r.Events()
	if len(ev) != 4 {
		t.Fatalf("Events returned %d", len(ev))
	}
	for i, e := range ev {
		if want := uint64(6 + i); e.Seq != want {
			t.Fatalf("event %d has seq %d, want %d (oldest-first tail)", i, e.Seq, want)
		}
		if e.Switch != 6+i {
			t.Fatalf("event %d switch %d", i, e.Switch)
		}
	}
}

func TestPartialRingOrder(t *testing.T) {
	r, _ := newRecorder(8)
	for i := 0; i < 3; i++ {
		exec(r, i)
	}
	ev := r.Events()
	if len(ev) != 3 || ev[0].Seq != 0 || ev[2].Seq != 2 {
		t.Fatalf("partial ring events: %+v", ev)
	}
	if r.Dropped() != 0 {
		t.Fatal("nothing should be dropped below capacity")
	}
}

// TestEventsDecodeThroughTheNetworksRegistration: labels and tag decoding
// come from Network.RegisterTags, an event keeps the decoder that was in
// force when it ran, and the tag is captured at OnExec time — the packet
// moves on and is rewritten.
func TestEventsDecodeThroughTheNetworksRegistration(t *testing.T) {
	r, nw := newRecorder(8)
	f := openflow.Field{Name: "start", Off: 0, Bits: 2}
	nw.RegisterTags(0x8802, "snapshot", [3]string{"start"}, func(int) [3]openflow.Field { return [3]openflow.Field{f} })
	pkt := openflow.NewPacket(0x8802, 4)
	f.Store(pkt.Tag, 2)
	r.OnExec(3, 2, pkt, &openflow.Result{Matched: true})
	f.Store(pkt.Tag, 1)

	nw.RegisterTags(0x8802, "monitor", [3]string{}, nil) // the EtherType changed hands
	r.OnExec(4, 1, pkt, &openflow.Result{Matched: true})

	ev := r.Events()
	if len(ev) != 2 || ev[0].Service != "snapshot" || ev[1].Service != "monitor" {
		t.Fatalf("service labels: %+v", ev)
	}
	if len(ev[0].Tags) != 1 || ev[0].Tags[0].Name != "start" || ev[0].Tags[0].Value != 2 {
		t.Fatalf("decoded tags: %+v", ev[0].Tags)
	}
	if len(ev[1].Tags) != 0 {
		t.Fatalf("a label-only registration decoded tags: %+v", ev[1].Tags)
	}
}

// TestSlotsKeepTheirOwnSteps: the ring reuses a slot's slices when it
// wraps, and the observer's Result is the lane's scratch — overwritten by
// the next execution. Neither may leak into a retained event.
func TestSlotsKeepTheirOwnSteps(t *testing.T) {
	r, _ := newRecorder(2)
	pkt := openflow.NewPacket(0x8801, 2)
	res := &openflow.Result{Matched: true}
	for i := 0; i < 5; i++ {
		res.Steps = append(res.Steps[:0], openflow.Step{Table: i, Cookie: "svc/x", Actions: []openflow.Action{openflow.Output{Port: i}}})
		res.GroupSteps = append(res.GroupSteps[:0], openflow.GroupStep{Group: uint32(i), Type: openflow.GroupFF, Bucket: i})
		res.Emissions = append(res.Emissions[:0], openflow.Emission{Port: i, Pkt: pkt})
		r.OnExec(i, 3, pkt, res)
	}
	res.Steps[0].Table, res.GroupSteps[0].Bucket = 99, 99
	for i, e := range r.Events() {
		want := 3 + i
		if e.Seq != uint64(want) || len(e.Rules) != 1 || e.Rules[0].Table != want || e.Rules[0].Actions != (openflow.Output{Port: want}).String() {
			t.Fatalf("event %d rules: %+v", i, e)
		}
		if len(e.Buckets) != 1 || e.Buckets[0].Bucket != want || len(e.Out) != 1 || e.Out[0] != want {
			t.Fatalf("event %d buckets/out: %+v", i, e)
		}
	}
}

func TestEventRecordsStepsBucketsEmissions(t *testing.T) {
	r, _ := newRecorder(8)
	pkt := openflow.NewPacket(0x8801, 2)
	res := &openflow.Result{
		Matched: true,
		Steps: []openflow.Step{{Table: 1, Priority: 9000, Cookie: "svc/x",
			Actions: []openflow.Action{openflow.Output{Port: 2}}}},
		GroupSteps: []openflow.GroupStep{{Group: 7, Type: openflow.GroupFF, Bucket: 1}},
		Emissions:  []openflow.Emission{{Port: 2, Pkt: pkt}},
	}
	r.OnExec(4, 3, pkt, res)
	e := r.Events()[0]
	if len(e.Rules) != 1 || e.Rules[0].Cookie != "svc/x" || e.Rules[0].Actions == "" {
		t.Fatalf("rules: %+v", e.Rules)
	}
	if len(e.Buckets) != 1 || e.Buckets[0].Group != 7 || e.Buckets[0].Bucket != 1 || e.Buckets[0].Type != "ff" {
		t.Fatalf("buckets: %+v", e.Buckets)
	}
	if len(e.Out) != 1 || e.Out[0] != 2 {
		t.Fatalf("out ports: %v", e.Out)
	}
	s := e.String()
	for _, want := range []string{"sw=4", "svc/x", "group 7 ff bucket 1", "out [2]"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() = %q missing %q", s, want)
		}
	}
}

// TestResetKeepsDecoders: Reset discards events; the registrations live
// in the network and still label what comes after.
func TestResetKeepsDecoders(t *testing.T) {
	r, nw := newRecorder(4)
	nw.RegisterTags(0x8802, "snapshot", [3]string{}, nil)
	exec(r, 0)
	r.Reset()
	if r.Len() != 0 || r.Total() != 0 {
		t.Fatal("reset must clear events")
	}
	exec(r, 1)
	if ev := r.Events(); len(ev) != 1 || ev[0].Service != "snapshot" || ev[0].Switch != 1 {
		t.Fatalf("after reset: %+v", ev)
	}
}
