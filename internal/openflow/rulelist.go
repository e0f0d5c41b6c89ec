package openflow

import (
	"slices"
	"sort"
	"strconv"
	"strings"
)

// rule is what a table needs to know of an entry to keep it in place.
type rule interface {
	priority() int
	cookie() string
}

func (e *FlowEntry) priority() int   { return e.Priority }
func (e *FlowEntry) cookie() string  { return e.Cookie }
func (e *StateEntry) priority() int  { return e.Priority }
func (e *StateEntry) cookie() string { return e.Cookie }

// ruleList is the ordered entry list of a flow or state table with the
// table's share of the switch's runtime state next to it. Entries are in
// match order — priority descending, insertion order on ties, the
// "overlapping entries are unspecified, first-add wins" behaviour switches
// exhibit in practice — so an entry's position is its rank: of two
// matching entries the one with the smaller index wins.
//
// The entries themselves are read-only and may be shared: a compiled
// Program hands every switch it is installed on the same pointers. What
// changes per packet lives in hits, the table's own dense, pointer-free
// array: hits[i] counts the packets that matched entries[i] (the per-entry
// counter every OpenFlow switch keeps; the pipeline cannot *match* on it —
// that limitation is exactly why the paper introduces smart counters built
// from round-robin groups). Every mutator moves a counter with its entry.
type ruleList[E rule] struct {
	entries []E
	hits    []uint64
}

// add inserts e after the entries of its priority: the insertion point is
// found by binary search, without re-sorting the table.
func (l *ruleList[E]) add(e E) {
	i := sort.Search(len(l.entries), func(i int) bool {
		return l.entries[i].priority() < e.priority()
	})
	l.entries = slices.Insert(l.entries, i, e)
	l.hits = slices.Insert(l.hits, i, 0)
}

// addBatch inserts es as one mutation, in the order len(es) adds would
// leave: the new entries are stably sorted among themselves, then merged
// behind the installed entries of equal priority. That is O(k·log k + n)
// for k entries into a table of n instead of the O(k·(n+k)) element moves
// of k sorted inserts — the in-memory analogue of a batched flow-mod
// transaction versus k wire messages. es itself is left as it was.
func (l *ruleList[E]) addBatch(es []E) {
	n, k := len(l.entries), len(es)
	l.entries = append(l.entries, es...)
	l.hits = append(l.hits, make([]uint64, k)...)
	fresh := l.entries[n:]
	slices.SortStableFunc(fresh, func(a, b E) int { return b.priority() - a.priority() })
	if n == 0 || k == 0 || l.entries[n-1].priority() >= fresh[0].priority() {
		return
	}
	// Merge from the back, so every element moves at most once and lands
	// at or behind where it was.
	fresh = slices.Clone(fresh)
	i, j := n-1, k-1
	for w := n + k - 1; j >= 0; w-- {
		if i >= 0 && l.entries[i].priority() < fresh[j].priority() {
			l.entries[w], l.hits[w] = l.entries[i], l.hits[i]
			i--
		} else {
			l.entries[w], l.hits[w] = fresh[j], 0
			j--
		}
	}
}

// removeIf deletes every entry the predicate selects, returning the count.
func (l *ruleList[E]) removeIf(pred func(E) bool) int {
	w := 0
	for i, e := range l.entries {
		if pred(e) {
			continue
		}
		l.entries[w], l.hits[w] = e, l.hits[i]
		w++
	}
	removed := len(l.entries) - w
	// Zero the compaction tail: the backing array otherwise keeps the
	// removed entries (and their action lists) reachable indefinitely.
	clear(l.entries[w:])
	l.entries, l.hits = l.entries[:w], l.hits[:w]
	return removed
}

// clear removes every entry, returning the count.
func (l *ruleList[E]) clear() int {
	n := len(l.entries)
	l.entries, l.hits = nil, nil
	return n
}

// liveRule is what a statistics read reports of an installed entry.
type liveRule struct {
	priority int
	hits     uint64
}

// byCookie indexes the list for a statistics read: CookieHash(cookie) →
// the first entry in match order that carries it. Keying on the numeric
// cookie finds a rule installed over the wire, whose entry holds the
// synthetic "wire-…" cookie, under its program cookie.
func (l *ruleList[E]) byCookie() map[uint64]liveRule {
	idx := make(map[uint64]liveRule, len(l.entries))
	for i, e := range l.entries {
		k := CookieHash(e.cookie())
		if _, dup := idx[k]; !dup {
			idx[k] = liveRule{e.priority(), l.hits[i]}
		}
	}
	return idx
}

// CookieHash maps a rule's cookie string to its numeric OpenFlow form
// (FNV-64a). Entries decoded from the wire carry synthetic
// "wire-%016x" cookies embedding that number; CookieHash recovers it, so
// a rule keys the same whether it was installed locally or over the wire.
func CookieHash(cookie string) uint64 {
	if len(cookie) == len("wire-")+16 && strings.HasPrefix(cookie, "wire-") {
		if v, err := strconv.ParseUint(cookie[len("wire-"):], 16, 64); err == nil {
			return v
		}
	}
	h := uint64(14695981039346656037) // FNV-64a offset basis
	for i := 0; i < len(cookie); i++ {
		h ^= uint64(cookie[i])
		h *= 1099511628211 // FNV-64 prime
	}
	return h
}
