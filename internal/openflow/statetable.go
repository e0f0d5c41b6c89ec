package openflow

import (
	"fmt"
	"strings"
)

// AnyState is the wildcard state condition: the entry matches regardless
// of the flow's current state (used for service rules that only look at
// packet fields, like the anycast receiver exit).
//
// A state table is the stateful-SDN primitive of OpenState / the Open
// Packet Processor line of work: per-flow-key state kept *in the switch*,
// consulted and updated at wire speed by EFSM transition entries. An
// entry matches on (state, packet fields) and executes (actions,
// set-state, goto) — no controller involvement per packet. SmartSouth's
// stateful backend lowers Algorithm 1 onto this primitive instead of
// carrying the DFS state in packet tag bits.

// StateEntry is one EFSM transition: match = (state condition, packet
// match), action = (action list, optional state write, goto). Like a
// FlowEntry it is read-only once built and may be shared between switches.
type StateEntry struct {
	Priority int
	// AnyState makes the entry match every state; State/StateMask are
	// ignored.
	AnyState bool
	// State is the required state value. When StateMask is non-zero the
	// comparison is masked (cur & StateMask == State); a zero mask means
	// exact equality.
	State     uint64
	StateMask uint64
	// Match is the packet-field half of the transition's left side.
	Match Match
	// Actions run when the transition fires, with the same apply-actions
	// semantics as flow entries.
	Actions []Action
	// SetState, when non-nil, writes the flow's next state. Nil keeps the
	// current state (a read-only transition).
	SetState *uint64
	// Goto continues the pipeline in a later table (NoGoto stops).
	Goto   int
	Cookie string
}

// EntryBytes models the transition's hardware footprint with the same
// per-entry scheme as FlowEntry.EntryBytes, plus the state condition and
// the state write (8 bytes each, like one extra criterion and one extra
// action).
func (e *StateEntry) EntryBytes() int {
	n := 56 + 8*e.Match.NumCriteria() + 8*len(e.Actions) + 8
	if e.SetState != nil {
		n += 8
	}
	return n
}

// StateCond renders the state half of the match for traces and dumps.
func (e *StateEntry) StateCond() string {
	switch {
	case e.AnyState:
		return "state=*"
	case e.StateMask != 0:
		return fmt.Sprintf("state&%#x=%d", e.StateMask, e.State)
	}
	return fmt.Sprintf("state=%d", e.State)
}

func (e *StateEntry) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s,%s", e.StateCond(), e.Match.String())
	if e.SetState != nil {
		fmt.Fprintf(&b, " ->state=%d", *e.SetState)
	}
	return b.String()
}

// MatchesState reports whether the entry's state condition accepts cur.
// Exported for the static analyzer, which mirrors Lookup symbolically.
func (e *StateEntry) MatchesState(cur uint64) bool { return e.matchesState(cur) }

// matchesState reports whether the entry's state condition accepts cur.
func (e *StateEntry) matchesState(cur uint64) bool {
	if e.AnyState {
		return true
	}
	if e.StateMask != 0 {
		return cur&e.StateMask == e.State
	}
	return cur == e.State
}

// StateTable is one stateful stage: a per-flow state store plus the
// transition entries that read and write it. The flow key is the
// concatenation of the Key fields read from the packet; an empty Key
// collapses the store to a single global state per (switch, table) —
// sufficient for the traversal services, whose state is per-node, not
// per-flow. Unknown keys read as state 0 ("default state" in OpenState
// terms), so the zero state must always mean "fresh".
type StateTable struct {
	ID  int
	Key []Field

	ruleList[*StateEntry]
	state map[uint64]uint64

	// Transitions counts committed state writes; lookups/scanned mirror
	// the FlowTable scan statistics for the telemetry layer.
	Transitions      uint64
	lookups, scanned uint64
}

// NewStateTable returns an empty state table with the given flow key.
func NewStateTable(id int, key []Field) *StateTable {
	return &StateTable{ID: id, Key: key, state: make(map[uint64]uint64)}
}

// AddBatch inserts a batch of transitions as one mutation (the
// state-table counterpart of FlowTable.AddBatch).
func (t *StateTable) AddBatch(es []*StateEntry) { t.addBatch(es) }

// FlowKey computes the packet's flow key under this table's Key fields.
func (t *StateTable) FlowKey(p *Packet) uint64 {
	var key uint64
	for _, f := range t.Key {
		key = key<<uint(f.Bits) | p.Load(f)
	}
	return key
}

// State returns the current state for a flow key (0 when never written).
func (t *StateTable) State(key uint64) uint64 { return t.state[key] }

// Lookup returns the highest-priority transition whose state condition
// accepts the current state of the packet's flow and whose packet match
// accepts the packet, counting the hit, or nil on miss.
func (t *StateTable) Lookup(key uint64, p *Packet) *StateEntry {
	cur := t.state[key]
	t.lookups++
	for i, e := range t.entries {
		t.scanned++
		if e.matchesState(cur) && e.Match.Matches(p) {
			t.hits[i]++
			return e
		}
	}
	return nil
}

// Commit applies the transition's state write for the flow key, if any.
func (t *StateTable) Commit(key uint64, e *StateEntry) {
	if e.SetState == nil {
		return
	}
	t.state[key] = *e.SetState
	t.Transitions++
}

// ResetState clears the state store (OpenState state-mod DELETE of every
// key), leaving the transition entries installed. Services whose state
// encodes one traversal (the DFS templates) reset before re-triggering.
func (t *StateTable) ResetState() {
	for k := range t.state {
		delete(t.state, k)
	}
}

// Entries returns the transitions in match order (priority descending).
func (t *StateTable) Entries() []*StateEntry { return t.entries }

// Len returns the number of installed transitions.
func (t *StateTable) Len() int { return len(t.entries) }

// Clear removes every transition and the whole state store.
func (t *StateTable) Clear() int {
	t.ResetState()
	return t.clear()
}

// Bytes sums the modelled hardware footprint: every transition entry plus
// 16 bytes per live state-store record.
func (t *StateTable) Bytes() int {
	n := 0
	for _, e := range t.entries {
		n += e.EntryBytes()
	}
	return n + 16*len(t.state)
}

// ScanStats returns cumulative lookup and entries-probed counts.
func (t *StateTable) ScanStats() (lookups, scanned uint64) {
	return t.lookups, t.scanned
}
