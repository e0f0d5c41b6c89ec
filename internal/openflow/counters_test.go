package openflow

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// ffBuckets is a bucket array for a fast-failover group: bucket i watches
// ports[i] and outputs there.
func ffBuckets(ports ...int) []Bucket {
	bs := make([]Bucket, len(ports))
	for i, p := range ports {
		bs[i] = Bucket{WatchPort: p, Actions: []Action{Output{Port: p}}}
	}
	return bs
}

func groupRule(id uint32) *FlowEntry {
	return &FlowEntry{Priority: 1, Match: MatchEth(uint16(0x8800 + id)), Goto: NoGoto,
		Actions: []Action{Group{ID: id}}, Cookie: fmt.Sprintf("g%d", id)}
}

// TestGroupsSharingBucketsCountIndependently: the compiler points a node's
// advance groups at suffixes of one bucket array. The buckets are shared
// rules; what each installed group counts, caches and points at is its
// own.
func TestGroupsSharingBucketsCountIndependently(t *testing.T) {
	all := ffBuckets(1, 2, 3)
	whole := &GroupEntry{ID: 1, Type: GroupFF, Buckets: all}
	tail := &GroupEntry{ID: 2, Type: GroupFF, Buckets: all[1:]}
	sw := NewSwitch(0, 3)
	sw.AddGroups([]*GroupEntry{whole, tail})
	sw.AddFlow(0, groupRule(1))
	sw.AddFlow(0, groupRule(2))

	send := func(id uint32, n int) {
		for i := 0; i < n; i++ {
			sw.Receive(NewPacket(uint16(0x8800+id), 1), PortController)
		}
	}
	send(1, 3)
	send(2, 5)
	if h1, h2 := sw.BucketHits(1), sw.BucketHits(2); !slices.Equal(h1, []uint64{3, 0, 0}) || !slices.Equal(h2, []uint64{5, 0}) {
		t.Fatalf("bucket hits %v and %v, want [3 0 0] and [5 0]: the groups share counters", h1, h2)
	}
	// Port 2 — whole's bucket 1, tail's bucket 0, one Bucket struct —
	// goes down: tail fails over, whole does not care.
	sw.SetPortLive(2, false)
	send(1, 1)
	send(2, 1)
	if h1, h2 := sw.BucketHits(1), sw.BucketHits(2); !slices.Equal(h1, []uint64{4, 0, 0}) || !slices.Equal(h2, []uint64{5, 1}) {
		t.Fatalf("after port 2 failed: bucket hits %v and %v, want [4 0 0] and [5 1]", h1, h2)
	}
	if &whole.Buckets[1] != &tail.Buckets[0] {
		t.Fatal("fixture: the groups do not share a backing array")
	}
}

// TestGroupModReplaceInstallsAFreshSlot: re-sending a group (what a smart
// counter reset does) zeroes the round-robin pointer, the bucket counters
// and the fast-failover liveness cache, and any liveness flip invalidates
// that cache on every installed group.
func TestGroupModReplaceInstallsAFreshSlot(t *testing.T) {
	sw := NewSwitch(0, 3)
	rr := &GroupEntry{ID: 1, Type: GroupSelectRR, Buckets: ffBuckets(1, 2, 3)}
	ff := &GroupEntry{ID: 2, Type: GroupFF, Buckets: ffBuckets(2, 3)}
	ff2 := &GroupEntry{ID: 3, Type: GroupFF, Buckets: ffBuckets(3, 1)}
	sw.AddGroups([]*GroupEntry{rr, ff, ff2})
	for id := uint32(1); id <= 3; id++ {
		sw.AddFlow(0, groupRule(id))
	}
	send := func(id uint32) int {
		res := sw.Receive(NewPacket(uint16(0x8800+id), 1), PortController)
		if len(res.Emissions) != 1 {
			t.Fatalf("group %d: %d emissions, want 1", id, len(res.Emissions))
		}
		return res.Emissions[0].Port
	}
	send(1)
	send(1)
	send(2)
	send(3)
	if v, _ := sw.CounterValue(1); v != 2 {
		t.Fatalf("round-robin pointer = %d after two packets, want 2", v)
	}
	for i := range sw.gslots {
		if s := &sw.gslots[i]; s.g.Type == GroupFF && s.ffLive != 1 {
			t.Fatalf("group %d: liveness cache %d after a packet, want bucket 0 cached", s.g.ID, s.ffLive)
		}
	}

	// Replace: same entries, fresh slots.
	sw.AddGroups([]*GroupEntry{rr, ff})
	if v, _ := sw.CounterValue(1); v != 0 {
		t.Errorf("round-robin pointer = %d after group-mod replace, want 0", v)
	}
	if h := sw.BucketHits(1); !slices.Equal(h, []uint64{0, 0, 0}) {
		t.Errorf("bucket hits %v after group-mod replace, want zeroes", h)
	}
	if i, _ := sw.groupPos(2); sw.gslots[i].ffLive != 0 {
		t.Errorf("liveness cache %d after group-mod replace, want unknown", sw.gslots[i].ffLive)
	}
	if got := send(1); got != 1 {
		t.Errorf("first packet after the replace left on port %d, want 1", got)
	}

	// A liveness flip reaches every slot's cache, whatever port it watches.
	send(2)
	sw.SetPortLive(1, false)
	for i := range sw.gslots {
		if sw.gslots[i].ffLive != 0 {
			t.Errorf("group %d keeps its liveness cache across SetPortLive", sw.gslots[i].g.ID)
		}
	}
	sw.SetPortLive(3, false)
	if got := send(2); got != 2 {
		t.Errorf("group 2 forwarded on port %d, want 2", got)
	}
	sw.SetPortLive(2, false)
	if res := sw.Receive(NewPacket(0x8802, 1), PortController); len(res.Emissions) != 0 || res.LastBucket != -1 {
		t.Errorf("group 2 with every watched port down: %d emissions, last bucket %d", len(res.Emissions), res.LastBucket)
	}
}

// TestHitCountersTravelWithEntries: Add, AddBatch and RemoveIf re-order
// the entry list; each entry's counter must move with it. Every entry
// matches its own EtherType only, so a packet names the entry it hits, and
// a map by cookie is the reference.
func TestHitCountersTravelWithEntries(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	ft := &FlowTable{}
	want := map[string]uint64{}
	eth := map[string]uint16{}
	next := 0
	mk := func() *FlowEntry {
		next++
		c := fmt.Sprintf("e%d", next)
		eth[c], want[c] = uint16(0x8000+next), 0
		return &FlowEntry{Priority: r.Intn(6), Match: MatchEth(eth[c]), Cookie: c, Goto: NoGoto}
	}
	check := func(step string) {
		t.Helper()
		n := 0
		ft.Each(func(e *FlowEntry, hits uint64) bool {
			n++
			if hits != want[e.Cookie] {
				t.Fatalf("%s: entry %s counts %d hits, want %d", step, e.Cookie, hits, want[e.Cookie])
			}
			return true
		})
		if n != len(want) {
			t.Fatalf("%s: table holds %d entries, want %d", step, n, len(want))
		}
	}
	traffic := func() {
		for c, et := range eth {
			for i := r.Intn(3); i > 0; i-- {
				if e := ft.Lookup(NewPacket(et, 1)); e == nil || e.Cookie != c {
					t.Fatalf("packet for %s matched %v", c, e)
				}
				want[c]++
			}
		}
	}
	for step := 0; step < 40; step++ {
		switch op := r.Intn(3); op {
		case 0:
			ft.Add(mk())
		case 1:
			es := make([]*FlowEntry, 1+r.Intn(6))
			for i := range es {
				es[i] = mk()
			}
			given := slices.Clone(es)
			ft.AddBatch(es)
			if !slices.Equal(es, given) {
				t.Fatalf("step %d: AddBatch re-ordered the caller's slice", step)
			}
		case 2:
			prio := r.Intn(6)
			ft.RemoveIf(func(e *FlowEntry) bool {
				if e.Priority != prio {
					return false
				}
				delete(want, e.Cookie)
				delete(eth, e.Cookie)
				return true
			})
		}
		check(fmt.Sprintf("step %d, after the mutation", step))
		traffic()
		check(fmt.Sprintf("step %d, after traffic", step))
	}
	if ft.Clear(); len(ft.hits) != 0 {
		t.Errorf("Clear left %d counters behind", len(ft.hits))
	}
}

// TestFirstAddWinsWithoutSequenceNumbers: among matching entries of one
// priority the earliest installed wins — whether the entries arrived by
// Add or inside a batch, merged into a table that already held their
// priority, and also when the matcher has to pick between its keyed and
// residual lists.
func TestFirstAddWinsWithoutSequenceNumbers(t *testing.T) {
	f := Field{Name: "f", Off: 0, Bits: 4}
	mk := func(prio int, cookie string, exact bool) *FlowEntry {
		m := MatchEth(0x8801)
		if exact {
			m = m.WithField(f, 3) // keyed by the matcher's value split
		} else {
			m = m.WithMasked(f, 1, 1) // odd values: stays on the residual list
		}
		return &FlowEntry{Priority: prio, Match: m, Cookie: cookie, Goto: NoGoto}
	}
	ft := &FlowTable{}
	ft.Add(mk(5, "resid-first", false))
	ft.AddBatch([]*FlowEntry{mk(1, "low", true), mk(5, "keyed-second", true), mk(9, "other", true)})
	ft.Add(mk(5, "keyed-third", true))
	if got, want := cookies(ft), []string{"other", "resid-first", "keyed-second", "keyed-third", "low"}; !slices.Equal(got, want) {
		t.Fatalf("match order %v, want %v", got, want)
	}
	ft.RemoveIf(func(e *FlowEntry) bool { return e.Cookie == "other" })
	ft.Compile()
	p := NewPacket(0x8801, 1)
	p.Store(f, 3)
	if e := ft.Lookup(p); e == nil || e.Cookie != "resid-first" {
		t.Errorf("Lookup = %v, want the first-added of the priority-5 entries", e)
	}
	ft.RemoveIf(func(e *FlowEntry) bool { return e.Cookie == "resid-first" })
	if e := ft.Lookup(p); e == nil || e.Cookie != "keyed-second" {
		t.Errorf("Lookup = %v, want keyed-second", e)
	}
}
