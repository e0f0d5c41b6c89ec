package openflow

import (
	"fmt"
	"strings"
)

// NoGoto marks a flow entry that ends pipeline processing at this table.
const NoGoto = -1

// FlowEntry is one row of a flow table: a priority, a match, an
// apply-actions list and an optional goto-table instruction. An entry is
// read-only once built and carries no runtime state, so one entry may sit
// in the tables of any number of switches at once; the counter a switch
// keeps for it lives in the table (see ruleList).
type FlowEntry struct {
	Priority int
	Match    Match
	Actions  []Action
	Goto     int // next table ID, or NoGoto

	// Cookie is a human-readable rule name used in traces and debugging;
	// it plays the role of the OpenFlow cookie.
	Cookie string
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
	ID int
	ruleList[*FlowEntry]

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

// Add inserts an entry, keeping the table in match order: behind the
// installed entries of its priority.
func (t *FlowTable) Add(e *FlowEntry) {
	t.cur = nil
	t.add(e)
}

// AddBatch installs a batch of entries as one mutation, in the order
// per-entry Adds would leave, at the batched cost (see ruleList.addBatch)
// — what keeps a 10k-switch program install linear in its rule count.
func (t *FlowTable) AddBatch(es []*FlowEntry) {
	if len(es) == 0 {
		return
	}
	t.cur = nil
	t.addBatch(es)
}

// Lookup returns the first matching entry, counting the hit, or nil for a
// table miss, dispatching through the compiled matcher. Every install
// path ends in Switch.CompileDispatch, so the matcher is normally in place
// and Lookup does not allocate; a table mutated behind that seam (a lone
// wire flow-mod, a direct Switch.AddFlow) compiles here, once, and that
// lookup is counted as a fallback so telemetry sees the install path that
// forgot.
//
//simlint:hotpath
func (t *FlowTable) Lookup(p *Packet) *FlowEntry {
	m := t.cur
	//simlint:cold
	if m == nil {
		t.Compile()
		t.flookups++
		return t.count(t.cur.lookup(p))
	}
	t.mlookups++
	return t.count(m.lookup(p))
}

// count books the outcome of one lookup: the entries probed and, on a
// match, the hit — one blind store into the table's own counter array.
func (t *FlowTable) count(me *mEntry, probed int) *FlowEntry {
	t.scanned += uint64(probed)
	if me == nil {
		return nil
	}
	t.hits[me.ord]++
	return me.e
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

// RemoveByCookiePrefix deletes every entry whose cookie starts with
// prefix (the OFPFC_DELETE-by-cookie-mask idiom), returning how many were
// removed.
func (t *FlowTable) RemoveByCookiePrefix(prefix string) int {
	return t.RemoveIf(func(e *FlowEntry) bool {
		return strings.HasPrefix(e.Cookie, prefix)
	})
}

// RemoveIf deletes every entry the predicate selects, returning the
// count.
func (t *FlowTable) RemoveIf(pred func(*FlowEntry) bool) int {
	removed := t.removeIf(pred)
	if removed > 0 {
		t.cur = nil
	}
	return removed
}

// Clear removes every entry.
func (t *FlowTable) Clear() int {
	t.cur = nil
	return t.clear()
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

// Each calls fn for every entry in match order, with the packets that hit
// it so far (ofp_flow_stats), until fn returns false. It does not allocate.
func (t *FlowTable) Each(fn func(e *FlowEntry, hits uint64) bool) {
	for i, e := range t.entries {
		if !fn(e, t.hits[i]) {
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
