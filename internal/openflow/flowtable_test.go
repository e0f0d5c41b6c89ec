package openflow

import (
	"fmt"
	"sort"
	"testing"
)

func entry(prio int, cookie string) *FlowEntry {
	return &FlowEntry{Priority: prio, Cookie: cookie, Goto: NoGoto}
}

func cookies(t *FlowTable) []string {
	var out []string
	t.Each(func(e *FlowEntry, _ uint64) bool {
		out = append(out, e.Cookie)
		return true
	})
	return out
}

func TestAddKeepsDescendingPriorityAndInsertionOrder(t *testing.T) {
	ft := &FlowTable{ID: 0}
	ft.Add(entry(10, "a"))
	ft.Add(entry(30, "b"))
	ft.Add(entry(20, "c"))
	ft.Add(entry(30, "d")) // same priority as b: must sort after it
	ft.Add(entry(5, "e"))

	want := []string{"b", "d", "c", "a", "e"}
	got := cookies(ft)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("order = %v, want %v", got, want)
	}

	// First-add-wins on priority ties: a lookup that matches both b and d
	// must return b.
	p := &Packet{}
	if e := ft.Lookup(p); e == nil || e.Cookie != "b" {
		t.Fatalf("Lookup = %v, want cookie b", e)
	}
}

func TestEntriesReturnsDefensiveCopy(t *testing.T) {
	ft := &FlowTable{ID: 0}
	ft.Add(entry(1, "x"))
	ft.Add(entry(2, "y"))

	es := ft.Entries()
	es[0], es[1] = es[1], es[0] // caller scrambles its copy

	if got := cookies(ft); got[0] != "y" || got[1] != "x" {
		t.Fatalf("table order corrupted by caller mutation: %v", got)
	}
}

func TestRemoveByCookiePrefixEdgeCases(t *testing.T) {
	fill := func() *FlowTable {
		ft := &FlowTable{ID: 0}
		ft.Add(entry(3, "svc/a"))
		ft.Add(entry(2, "svc/b"))
		ft.Add(entry(1, "other"))
		return ft
	}

	ft := fill()
	if n := ft.RemoveByCookiePrefix("svc/"); n != 2 || ft.Len() != 1 {
		t.Fatalf("RemoveByCookiePrefix(svc/) = %d, len %d; want 2, 1", n, ft.Len())
	}

	// Empty prefix matches every cookie (delete-all).
	ft = fill()
	if n := ft.RemoveByCookiePrefix(""); n != 3 || ft.Len() != 0 {
		t.Fatalf("RemoveByCookiePrefix(\"\") = %d, len %d; want 3, 0", n, ft.Len())
	}

	// Prefix longer than any cookie matches nothing.
	ft = fill()
	if n := ft.RemoveByCookiePrefix("svc/a/deeper/than/any"); n != 0 || ft.Len() != 3 {
		t.Fatalf("long prefix removed %d entries, want 0", n)
	}

	// Removing from an empty table is a no-op.
	ft = &FlowTable{ID: 0}
	if n := ft.RemoveByCookiePrefix("svc/"); n != 0 {
		t.Fatalf("remove on empty table = %d, want 0", n)
	}
}

func TestRemoveIf(t *testing.T) {
	ft := &FlowTable{ID: 0}
	for i := 0; i < 6; i++ {
		ft.Add(entry(i, fmt.Sprintf("e%d", i)))
	}
	n := ft.RemoveIf(func(e *FlowEntry) bool { return e.Priority%2 == 0 })
	if n != 3 || ft.Len() != 3 {
		t.Fatalf("RemoveIf = %d, len %d; want 3, 3", n, ft.Len())
	}
	// Survivors keep descending priority order.
	got := cookies(ft)
	want := []string{"e5", "e3", "e1"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("order after RemoveIf = %v, want %v", got, want)
	}
	if n := ft.RemoveIf(func(*FlowEntry) bool { return false }); n != 0 || ft.Len() != 3 {
		t.Fatalf("no-op RemoveIf changed the table")
	}
}

func TestClearThenReAdd(t *testing.T) {
	ft := &FlowTable{ID: 0}
	ft.Add(entry(1, "a"))
	ft.Add(entry(2, "b"))
	if n := ft.Clear(); n != 2 || ft.Len() != 0 {
		t.Fatalf("Clear = %d, len %d; want 2, 0", n, ft.Len())
	}
	if n := ft.Clear(); n != 0 {
		t.Fatalf("second Clear = %d, want 0", n)
	}
	ft.Add(entry(5, "c"))
	ft.Add(entry(9, "d"))
	if got := cookies(ft); fmt.Sprint(got) != fmt.Sprint([]string{"d", "c"}) {
		t.Fatalf("re-add after Clear gave order %v", got)
	}
}

func TestRemoveGroupRangeEdgeCases(t *testing.T) {
	sw := NewSwitch(0, 2)
	for _, id := range []uint32{10, 20, 30} {
		sw.AddGroup(&GroupEntry{ID: id, Type: GroupIndirect, Buckets: []Bucket{{}}})
	}

	// Empty range [lo, lo) removes nothing.
	if n := sw.RemoveGroupRange(20, 20); n != 0 || sw.GroupCount() != 3 {
		t.Fatalf("empty range removed %d groups", n)
	}
	// Inverted range removes nothing.
	if n := sw.RemoveGroupRange(30, 10); n != 0 || sw.GroupCount() != 3 {
		t.Fatalf("inverted range removed %d groups", n)
	}
	// Half-open: hi is excluded.
	if n := sw.RemoveGroupRange(10, 30); n != 2 || sw.GroupCount() != 1 {
		t.Fatalf("RemoveGroupRange(10,30) = %d, count %d; want 2, 1", n, sw.GroupCount())
	}
	if sw.GroupByID(30) == nil {
		t.Fatalf("group 30 should have survived [10,30)")
	}
	// Range over an empty table is a no-op.
	sw.RemoveGroupRange(0, ^uint32(0))
	if n := sw.RemoveGroupRange(0, ^uint32(0)); n != 0 {
		t.Fatalf("remove on empty group table = %d, want 0", n)
	}
}

// resortAdd is the pre-optimization Add: append then re-sort the whole
// table. Kept here so the benchmark records the before/after.
func resortAdd(t *FlowTable, e *FlowEntry) {
	t.entries = append(t.entries, e)
	sort.SliceStable(t.entries, func(i, j int) bool {
		return t.entries[i].Priority > t.entries[j].Priority
	})
}

func BenchmarkFlowTableInstall(b *testing.B) {
	const k = 2000
	prios := make([]int, k)
	for i := range prios {
		prios[i] = (i * 7919) % 1000 // deterministic scatter
	}
	b.Run("binary-insert", func(b *testing.B) {
		for n := 0; n < b.N; n++ {
			ft := &FlowTable{ID: 0}
			for _, p := range prios {
				ft.Add(&FlowEntry{Priority: p, Goto: NoGoto})
			}
		}
	})
	b.Run("resort", func(b *testing.B) {
		for n := 0; n < b.N; n++ {
			ft := &FlowTable{ID: 0}
			for _, p := range prios {
				resortAdd(ft, &FlowEntry{Priority: p, Goto: NoGoto})
			}
		}
	})
}
