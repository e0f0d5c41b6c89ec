package openflow

import (
	"fmt"
	"sort"
	"strings"
)

// NoGoto marks a flow entry that ends pipeline processing at this table.
const NoGoto = -1

// FlowEntry is one row of a flow table: a priority, a match, an
// apply-actions list and an optional goto-table instruction.
type FlowEntry struct {
	Priority int
	Match    Match
	Actions  []Action
	Goto     int // next table ID, or NoGoto

	// Cookie is a human-readable rule name used in traces and debugging;
	// it plays the role of the OpenFlow cookie.
	Cookie string

	// Packets counts how many packets hit this entry (the per-entry
	// counter every OpenFlow switch keeps). Note that the pipeline cannot
	// *match* on this counter — that limitation is exactly why the paper
	// introduces smart counters built from round-robin groups.
	Packets uint64

	// seq is the table-assigned insertion sequence number; together with
	// Priority it totally orders entries (priority desc, insertion asc),
	// which is what lets the compiled matcher compare candidates from
	// different lists. Assigned by FlowTable.Add — an entry therefore
	// belongs to at most one table, like a real ofp_flow_mod.
	seq uint64
}

func (e *FlowEntry) String() string {
	return fmt.Sprintf("prio=%d %s -> %d actions, goto=%d (%s)",
		e.Priority, e.Match, len(e.Actions), e.Goto, e.Cookie)
}

// EntryBytes estimates the hardware footprint of the entry in bytes, used
// by the rule-space experiment (claim C3 in DESIGN.md). The model follows
// the OpenFlow 1.3 wire format: a 56-byte ofp_flow_mod base, 8 bytes per
// OXM match criterion, and 8 bytes per action.
func (e *FlowEntry) EntryBytes() int {
	return 56 + 8*e.Match.NumCriteria() + 8*len(e.Actions)
}

// FlowTable is a priority-ordered set of flow entries. Lookup returns the
// highest-priority matching entry; ties are broken by insertion order,
// matching the "overlapping entries are unspecified, first-add wins"
// behaviour switches exhibit in practice.
//
// The ordered entry list is the table's only source of truth. Lookups are
// served by the compiled matcher (matcher.go), an immutable decision tree
// built from that list: mutators drop it, Switch.CompileDispatch rebuilds
// it at the end of every install transaction, and a Lookup that finds it
// missing builds it on the spot.
type FlowTable struct {
	ID      int
	entries []*FlowEntry

	seq uint64 // next insertion sequence number

	// cur is the compiled matcher of the current entries, nil after any
	// mutation until the next Compile.
	cur *matcher

	// mlookups counts Lookup calls that found the matcher in place,
	// flookups those that had to compile it first — an install path that
	// forgot CompileDispatch — and scanned the entries probed across both.
	// scanned/(mlookups+flookups) is the real fan-out of the dispatch
	// path. Plain fields: a table belongs to one switch and one simulator
	// goroutine, like the rest of its state.
	mlookups uint64
	flookups uint64
	scanned  uint64
}

// Add inserts an entry, keeping the table sorted by descending priority.
// The insertion point is found by binary search and equal-priority entries
// are inserted after existing ones, preserving first-add-wins lookup order
// without re-sorting the whole table on every install.
func (t *FlowTable) Add(e *FlowEntry) {
	e.seq = t.seq
	t.seq++
	t.cur = nil
	i := sort.Search(len(t.entries), func(i int) bool {
		return t.entries[i].Priority < e.Priority
	})
	t.entries = append(t.entries, nil)
	copy(t.entries[i+1:], t.entries[i:])
	t.entries[i] = e
}

// byTableOrder is the table's total order: priority descending, ties
// broken by insertion sequence — exactly the order incremental Add
// maintains.
func byTableOrder(list []*FlowEntry) func(i, j int) bool {
	return func(i, j int) bool {
		if list[i].Priority != list[j].Priority {
			return list[i].Priority > list[j].Priority
		}
		return list[i].seq < list[j].seq
	}
}

// AddBatch installs a batch of entries as one mutation: sequence numbers
// follow slice order, then the list is re-sorted once. Installing k
// entries into a table holding n this way costs O((n+k)·log(n+k)) instead
// of the O(k·(n+k)) element moves of k sorted inserts — the in-memory
// analogue of a batched flow-mod transaction versus k wire messages, and
// what keeps a 10k-switch program install linear in its rule count.
func (t *FlowTable) AddBatch(es []*FlowEntry) {
	if len(es) == 0 {
		return
	}
	if len(es) == 1 {
		t.Add(es[0])
		return
	}
	t.cur = nil
	for _, e := range es {
		e.seq = t.seq
		t.seq++
	}
	t.entries = append(t.entries, es...)
	sort.Slice(t.entries, byTableOrder(t.entries))
}

// better returns the entry that wins overall ordering: higher priority, or
// earlier insertion on a tie. Either argument may be nil.
func better(a, b *FlowEntry) *FlowEntry {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	if a.Priority != b.Priority {
		if a.Priority > b.Priority {
			return a
		}
		return b
	}
	if a.seq <= b.seq {
		return a
	}
	return b
}

// Lookup returns the first matching entry, or nil for a table miss,
// dispatching through the compiled matcher. Every install path ends in
// Switch.CompileDispatch, so the matcher is normally in place and Lookup
// does not allocate; a table mutated behind that seam (a lone wire
// flow-mod, a direct Switch.AddFlow) compiles here, once, and that lookup
// is counted as a fallback so telemetry sees the install path that forgot.
//
//simlint:hotpath
func (t *FlowTable) Lookup(p *Packet) *FlowEntry {
	m := t.cur
	//simlint:cold
	if m == nil {
		t.Compile()
		e, probed := t.cur.lookup(p)
		t.flookups++
		t.scanned += uint64(probed)
		return e
	}
	e, probed := m.lookup(p)
	t.mlookups++
	t.scanned += uint64(probed)
	return e
}

// ScanStats is the cumulative dispatch accounting of a table (or, via
// Switch.ScanStats, a whole switch): how many Lookup calls found the
// compiled matcher in place, how many had to compile it first (plus, on a
// switch, every state-table lookup — those have no matcher), and how many
// entries were probed across both. A non-zero flow-table FallbackLookups
// names an install path that mutated a table without CompileDispatch.
type ScanStats struct {
	MatcherLookups  uint64
	FallbackLookups uint64
	Scanned         uint64
}

// Lookups returns the total Lookup calls.
func (s ScanStats) Lookups() uint64 { return s.MatcherLookups + s.FallbackLookups }

// Merge accumulates o into s.
func (s *ScanStats) Merge(o ScanStats) {
	s.MatcherLookups += o.MatcherLookups
	s.FallbackLookups += o.FallbackLookups
	s.Scanned += o.Scanned
}

// ScanStats returns the table's cumulative dispatch counters.
func (t *FlowTable) ScanStats() ScanStats {
	return ScanStats{MatcherLookups: t.mlookups, FallbackLookups: t.flookups, Scanned: t.scanned}
}

// ByCookie returns the first entry with exactly the given cookie, or nil.
// SmartSouth cookies are unique per rule within a table, so this is the
// reverse mapping from a retained Program's declarative rules to their
// live hit counters.
func (t *FlowTable) ByCookie(cookie string) *FlowEntry {
	for _, e := range t.entries {
		if e.Cookie == cookie {
			return e
		}
	}
	return nil
}

// RemoveByCookiePrefix deletes every entry whose cookie starts with
// prefix (the OFPFC_DELETE-by-cookie-mask idiom), returning how many were
// removed.
func (t *FlowTable) RemoveByCookiePrefix(prefix string) int {
	return t.RemoveIf(func(e *FlowEntry) bool {
		return strings.HasPrefix(e.Cookie, prefix)
	})
}

// RemoveIf deletes every entry the predicate selects, returning the
// count. The compacted tail of the backing array is cleared so removed
// entries do not linger half-alive.
func (t *FlowTable) RemoveIf(pred func(*FlowEntry) bool) int {
	kept := t.entries[:0]
	removed := 0
	for _, e := range t.entries {
		if pred(e) {
			removed++
			continue
		}
		kept = append(kept, e)
	}
	// Nil out the compaction tail: the backing array otherwise keeps the
	// removed entries (and their action lists) reachable indefinitely.
	for i := len(kept); i < len(t.entries); i++ {
		t.entries[i] = nil
	}
	t.entries = kept
	if removed > 0 {
		t.cur = nil
	}
	return removed
}

// Clear removes every entry.
func (t *FlowTable) Clear() int {
	n := len(t.entries)
	t.entries = nil
	t.cur = nil
	return n
}

// Len returns the number of entries installed.
func (t *FlowTable) Len() int { return len(t.entries) }

// Entries returns the installed entries in match order. The returned slice
// is a copy, so callers cannot corrupt the table's priority order by
// mutating it; use Each to iterate without allocating.
func (t *FlowTable) Entries() []*FlowEntry {
	out := make([]*FlowEntry, len(t.entries))
	copy(out, t.entries)
	return out
}

// Each calls fn for every entry in match order until fn returns false.
// It does not allocate; dump and verify use it on their hot paths.
func (t *FlowTable) Each(fn func(*FlowEntry) bool) {
	for _, e := range t.entries {
		if !fn(e) {
			return
		}
	}
}

// Bytes sums the modelled hardware footprint of all entries.
func (t *FlowTable) Bytes() int {
	n := 0
	for _, e := range t.entries {
		n += e.EntryBytes()
	}
	return n
}
