package openflow

import (
	"slices"
	"sync"
)

// This file implements the compiled dispatch matcher: an immutable
// decision-tree built from a flow table's entries at install time.
//
// Shape. The tree keys a single flat index on (EtherType, InPort) — every
// node holds the complete candidate set for packets arriving with that
// pair, port-wildcard entries merged in — and then splits each node on
// the full-width-exact tag field that discriminates the most entries (for
// SmartSouth-compiled tables that is the per-service state byte, e.g. the
// C field of the snapshot service). A per-EtherType any-port node serves
// packets on ports no exact entry names, and entries that wildcard the
// EtherType live on a table-level wildcard list. Duplicating the (few)
// port-wildcard entries into every named port's node trades a little
// install-time memory for one probe on the hot path: the common lookup is
// one node probe plus one value probe, no cross-list merge. Entries the
// node cannot place under a value key fall through to its residual linear
// list. Every list is kept in match order and every reduced entry carries
// its ordinal — its position in the table's entry list — so the best of
// the per-list first matches, combined with better(), is exactly the entry
// a full priority-ordered scan would return, and the table finds the
// entry's hit counter without a second lookup.
//
// Criteria already tested by the path to a list are stripped from its
// entries, and what remains is compiled to crit records — bit range,
// mask resolved, value pre-masked — so a probe is a handful of loads
// with no method dispatch. The compiled lists, their criteria and the
// nodes themselves are packed into per-matcher arenas: a lookup's
// pointer chases land in a few contiguous allocations instead of
// per-node slices scattered across the heap, which matters once a sweep
// touches hundreds of switches and their caches are cold.
//
// Lifecycle. The matcher is immutable once built; FlowTable mutators drop
// the table's pointer to it instead of touching it. The install path
// rebuilds it via Switch.CompileDispatch, which compiles only the tables
// left without one — the tables a transaction did not write keep their
// matcher — so compile cost stays in the install stage. A Lookup that
// still finds no matcher (a table mutated behind that seam) compiles it
// itself and is counted as a fallback lookup.
//
// Working set. The compile's partition, node lists, plans and sort
// buffers live in a compileScratch that is reused: CompileDispatch takes
// one from a pool for all the tables it compiles, and Compile takes one
// for its table. Only the matcher, its arenas, its nodes and their port
// lists are allocated per table, exactly sized. Nothing a matcher keeps
// may alias the scratch, which the next compile overwrites.

// anyInPort is the key sentinel for entries that wildcard the ingress
// port. It cannot collide with a packet's InPort: reserved ports are small
// negative constants and physical ports are small positives.
const anyInPort = int32(-1 << 30)

// ftKey is the exact-match dispatch key of an entry: its EtherType plus,
// where present, its ingress port. Entries that wildcard the EtherType do
// not get a key and live on the wildcard list instead.
type ftKey struct {
	eth int32
	in  int32
}

// keyOf classifies an entry for the tree. ok is false when the entry
// wildcards the EtherType and must go on the wildcard list.
func keyOf(m Match) (k ftKey, ok bool) {
	if m.EthType == AnyEthType {
		return ftKey{}, false
	}
	k = ftKey{eth: int32(m.EthType), in: anyInPort}
	if m.InPort != AnyPort {
		k.in = int32(m.InPort)
	}
	return k, true
}

// crit is one residual field criterion in compiled form: the field
// reduced to its bit range, the mask resolved (a zero FieldMatch mask
// means full width), and the value pre-masked. bits == 0 marks the
// absence of a criterion (no valid field is zero-width).
type crit struct {
	off  int32
	bits int32
	val  uint64
	mask uint64
}

func makeCrit(fm FieldMatch) crit {
	k := fm.mask()
	return crit{off: int32(fm.F.Off), bits: int32(fm.F.Bits), val: fm.Value & k, mask: k}
}

func (c *crit) ok(p *Packet) bool {
	return (Field{Off: int(c.off), Bits: int(c.bits)}).Load(p.Tag)&c.mask == c.val
}

// mEntry is one flow entry reduced to the criteria the matcher's tree
// has not already tested on the way to its list: the EtherType always,
// and the ingress port everywhere but on the wildcard list, whose scan
// reads it off the entry. The first residual criterion sits inline (c0) so
// the common zero- and one-criterion probes never chase the extra slice.
// 64 bytes: one cache line per probe.
type mEntry struct {
	e     *FlowEntry
	ord   int32 // e's position in the table's entry list: its rank, and its slot in hits
	ttl   int16 // -1 when wildcarded
	c0    crit
	extra []crit
}

func (me *mEntry) matches(p *Packet) bool {
	if me.ttl >= 0 && int16(p.TTL) != me.ttl {
		return false
	}
	if me.c0.bits == 0 {
		return true
	}
	if !me.c0.ok(p) {
		return false
	}
	for i := range me.extra {
		if !me.extra[i].ok(p) {
			return false
		}
	}
	return true
}

// mList is a list of reduced entries in match order; the first match is
// the best of the list.
type mList []mEntry

func (l mList) first(p *Packet) (*mEntry, int) {
	for i := range l {
		if l[i].matches(p) {
			return &l[i], i + 1
		}
	}
	return nil, len(l)
}

// better returns the entry that comes first in match order. Either
// argument may be nil.
func better(a, b *mEntry) *mEntry {
	if a == nil || (b != nil && b.ord < a.ord) {
		return b
	}
	return a
}

// mNode is the field-test node of one (EtherType, InPort) bucket: when
// split, the entries carrying a full-width exact match on the field at
// (foff, fbits) are keyed by their match value — in the parallel
// keys/lists arrays when the value set is small (a linear scan of a few
// uint64s beats a map probe), in vals otherwise — and resid holds the
// rest. residTop is the highest priority on resid, so a keyed hit that
// outranks all of resid skips the residual scan outright. The field is
// stored as a bare bit range (not a Field, whose diagnostic name would
// double the node's hot cache line).
type mNode struct {
	split    bool
	foff     int32
	fbits    int32
	keys     []uint64 // small splits: keys[i] selects lists[i]
	lists    []mList
	resid    mList
	residTop int
	vals     map[uint64]mList // large splits
}

func (nd *mNode) lookup(p *Packet) (*mEntry, int) {
	if !nd.split {
		return nd.resid.first(p)
	}
	v := (Field{Off: int(nd.foff), Bits: int(nd.fbits)}).Load(p.Tag)
	var keyed mList
	if nd.keys != nil {
		for i, k := range nd.keys {
			if k == v {
				keyed = nd.lists[i]
				break
			}
		}
	} else {
		keyed = nd.vals[v]
	}
	best, probed := keyed.first(p)
	if best != nil && (len(nd.resid) == 0 || best.e.Priority > nd.residTop) {
		// Every residual entry is outranked; ties still scan, since an
		// equal-priority residual entry could win on insertion order.
		return best, probed
	}
	e, n := nd.resid.first(p)
	return better(best, e), probed + n
}

// ethNode groups one exact EtherType's nodes: one per named ingress
// port (parallel ports/pvec arrays, first-seen order) plus the any-port
// node serving ports no exact entry names. any is nil when the
// EtherType has no port-wildcard entries.
type ethNode struct {
	eth   int32
	ports []int32
	pvec  []*mNode
	any   *mNode
}

// smallEthMax is the EtherType-set size up to which the matcher finds
// the ethNode by scanning the slice. Compiled tables carry one service
// EtherType, maybe two; only synthetic many-service tables spill into
// the index map.
const smallEthMax = 16

// matcher is the compiled dispatch tree of one FlowTable.
type matcher struct {
	eths   []ethNode
	ethIdx map[int32]int32 // index into eths; nil while the set is small
	wild   mList           // entries with a wildcarded EtherType
}

func (m *matcher) ethAt(e int32) *ethNode {
	if m.ethIdx == nil {
		for i := range m.eths {
			if m.eths[i].eth == e {
				return &m.eths[i]
			}
		}
		return nil
	}
	if i, ok := m.ethIdx[e]; ok {
		return &m.eths[i]
	}
	return nil
}

// lookup returns the best matching entry and the number of entries
// probed. It never allocates.
//
//simlint:hotpath
func (m *matcher) lookup(p *Packet) (*mEntry, int) {
	var best *mEntry
	probed := 0
	if en := m.ethAt(int32(p.EthType)); en != nil {
		nd := en.any
		q := int32(p.InPort)
		for i, pq := range en.ports {
			if pq == q {
				nd = en.pvec[i]
				break
			}
		}
		if nd != nil {
			best, probed = nd.lookup(p)
		}
	}
	for i := range m.wild {
		me := &m.wild[i]
		probed++
		if in := me.e.Match.InPort; (in == AnyPort || in == p.InPort) && me.matches(p) {
			best = better(best, me)
			break
		}
	}
	return best, probed
}

// fkey identifies a tag bit range; Name is diagnostic only, so two fields
// with equal offsets and widths match identically and share a key.
type fkey struct{ off, bits int }

// exactOn returns the index of the first full-width exact FieldMatch on
// k in fields, or -1. Masked or partial-width criteria cannot key a value
// map (two different packet values can both satisfy them).
func exactOn(fields []FieldMatch, k fkey) int {
	for i, fm := range fields {
		if (fkey{fm.F.Off, fm.F.Bits}) == k && (fm.Mask == 0 || fm.Mask == fm.F.Max()) {
			return i
		}
	}
	return -1
}

// arena is the packed storage of one matcher: everything a lookup chases
// lives in these contiguous blocks instead of per-node slices scattered
// across the heap. The sizing pass makes the capacities exact, so no
// append ever regrows and every slice handed out keeps pointing into the
// one final block.
type arena struct {
	ents  mList
	crits []crit
	keys  []uint64
	lists []mList
}

// take hands out the next n entry slots; nil when n is zero.
func (a *arena) take(n int) mList {
	if n == 0 {
		return nil
	}
	s := len(a.ents)
	a.ents = a.ents[:s+n]
	return a.ents[s : s+n : s+n]
}

// ordEntry is a flow entry on its way through the compile, with its
// position in the table's entry list.
type ordEntry struct {
	*FlowEntry
	ord int32
}

// reduce fills me with the mEntry of e for a list whose path already
// tested the EtherType, the ingress port, and optionally one field
// criterion (dropField >= 0, an index into e.Match.Fields).
func (a *arena) reduce(me *mEntry, e ordEntry, dropField int) {
	*me = mEntry{e: e.FlowEntry, ord: e.ord, ttl: -1}
	if e.Match.TTL != AnyTTL {
		me.ttl = int16(e.Match.TTL)
	}
	first, cs := true, len(a.crits)
	for i, fm := range e.Match.Fields {
		if i == dropField {
			continue
		}
		if first {
			me.c0, first = makeCrit(fm), false
		} else {
			a.crits = append(a.crits, makeCrit(fm))
		}
	}
	if n := len(a.crits); n > cs {
		me.extra = a.crits[cs:n:n]
	}
}

// extraCrits is the number of residual criteria of e beyond the inline
// first, when keyed of its fields are tested by the path.
func extraCrits(e ordEntry, keyed int) int {
	return max(len(e.Match.Fields)-keyed-1, 0)
}

// nodePlan is the sizing pass over one (EtherType, InPort) node: whether
// it splits, on which field, into which value lists of what length. The
// plans of a whole table size its arena exactly; emit then writes every
// reduced entry once, straight into its final slot. A plan's slices live
// in the compile scratch.
type nodePlan struct {
	list  []ordEntry // match order
	split bool
	key   fkey     // split: the keyed field
	keys  []uint64 // split: the distinct match values, ascending
	cnt   []int    // split: entries under each key
	nCrit int      // residual criteria beyond each entry's inline first
}

// smallSplitMax is the value-set size up to which a split node keeps its
// keys in a scanned array instead of a map.
const smallSplitMax = 12

func (pl *nodePlan) small() bool { return pl.split && len(pl.keys) <= smallSplitMax }

// ethBucket is one exact EtherType's share of a table during the compile:
// its entries, the named ingress ports and which of them every entry names.
type ethBucket struct {
	eth   int32
	all   []ordEntry // this EtherType's entries, in match order
	pidx  []int32    // per entry: index into ports, -1 for any port
	ports []int32    // distinct exact ingress ports, first-seen order
	named []int      // per port: entries naming it
	nAny  int        // port-wildcard entries
}

// tally counts the entries a node could key on one field.
type tally struct {
	k fkey
	n int
}

// compileScratch is compileMatcher's working set: the EtherType
// partition, the dealt node lists, the plans and the buffers the sizing
// and emit passes run through. None of it outlives a compile — what the
// matcher keeps is copied into its own allocations, never aliased — so
// one scratch serves every table an install compiles, and scratchPool
// carries it from install to install. Each compile ends in reset, which
// clears only what that compile used and drops the flow-entry pointers
// the scratch held. The zero value is ready to use.
type compileScratch struct {
	idx     map[int32]int32 // EtherType -> index into buckets
	buckets []ethBucket     // first-seen order; spare ones keep their buffers
	wild    []ordEntry      // entries with a wildcarded EtherType
	block   []ordEntry      // every node's list, back to back
	lists   [][]ordEntry    // one EtherType's node lists while they are dealt
	plans   []nodePlan
	keys    []uint64 // the plans' keys
	cnt     []int    // the plans' per-key counts
	tally   []tally  // planNode: one node's field tally
	vals    []uint64 // planNode: one node's keyed match values
	start   []int    // emit: list li occupies block[start[li]:start[li+1]]
	fill    []int    // emit: each list's next free slot
	slots   []int32  // emit: slot -> index into the plan's list
}

// scratchPool recycles compile scratches across installs. Concurrent
// installs (openflow.EachSwitch) each take their own.
var scratchPool = sync.Pool{New: func() any { return new(compileScratch) }}

// bucket returns the bucket of eth, opening the next one on first sight.
func (s *compileScratch) bucket(eth int32) *ethBucket {
	if s.idx == nil {
		s.idx = make(map[int32]int32)
	}
	bi, ok := s.idx[eth]
	if !ok {
		bi = int32(len(s.buckets))
		s.idx[eth] = bi
		if len(s.buckets) < cap(s.buckets) {
			s.buckets = s.buckets[:bi+1] // a reset bucket: empty, buffers kept
		} else {
			s.buckets = append(s.buckets, ethBucket{})
		}
		s.buckets[bi].eth = eth
	}
	return &s.buckets[bi]
}

// reset empties the scratch for the next compile. It clears only the
// used lengths, so its cost follows the table just compiled rather than
// the largest one the scratch ever served.
func (s *compileScratch) reset() {
	for i := range s.buckets {
		b := &s.buckets[i]
		delete(s.idx, b.eth)
		clear(b.all)
		b.all, b.pidx, b.ports, b.named, b.nAny = b.all[:0], b.pidx[:0], b.ports[:0], b.named[:0], 0
	}
	s.buckets = s.buckets[:0]
	clear(s.wild)
	s.wild = s.wild[:0]
	clear(s.block)
	s.block = s.block[:0]
	clear(s.lists)
	s.lists = s.lists[:0]
	clear(s.plans)
	s.plans = s.plans[:0]
	s.keys, s.cnt = s.keys[:0], s.cnt[:0]
}

// planNode sizes one node. list is in match order; dealing it out in
// order keeps every sub-list ordered too.
func (s *compileScratch) planNode(list []ordEntry) nodePlan {
	pl := nodePlan{list: list}
	// Pick the full-width-exact field covering the most entries; the first
	// field to reach the top count wins a tie. An entry naming a field twice
	// counts once. Nodes see a handful of distinct fields, so the tally is a
	// scanned slice rather than a map.
	counts := s.tally[:0]
	bestCnt := 0
	for _, e := range list {
		for j, fm := range e.Match.Fields {
			k := fkey{fm.F.Off, fm.F.Bits}
			if (fm.Mask != 0 && fm.Mask != fm.F.Max()) || exactOn(e.Match.Fields[:j], k) >= 0 {
				continue
			}
			i := 0
			for i < len(counts) && counts[i].k != k {
				i++
			}
			if i == len(counts) {
				counts = append(counts, tally{k: k})
			}
			counts[i].n++
			if c := counts[i].n; c > bestCnt {
				bestCnt, pl.key = c, k
			}
		}
	}
	s.tally = counts
	// A split only pays when it actually carves the bucket up: with fewer
	// than two keyed entries the value lists are pure overhead over the list.
	pl.split = bestCnt >= 2 && len(list) >= 3
	vals := s.vals[:0] // the keyed entries' match values, in match order
	for _, e := range list {
		keyed := 0
		if pl.split {
			if i := exactOn(e.Match.Fields, pl.key); i >= 0 {
				fm := e.Match.Fields[i]
				vals = append(vals, fm.Value&fm.F.Max())
				keyed = 1
			}
		}
		pl.nCrit += extraCrits(e, keyed)
	}
	s.vals = vals
	if !pl.split {
		return pl
	}
	// Sorted keys make the compiled layout (and hence the probe order and
	// scan telemetry) identical run to run.
	base := len(s.keys)
	s.keys = append(s.keys, vals...)
	keys := s.keys[base:]
	slices.Sort(keys)
	keys = slices.Compact(keys)
	s.keys = s.keys[:base+len(keys)]
	pl.keys = keys[:len(keys):len(keys)]
	base = len(s.cnt)
	s.cnt = slices.Grow(s.cnt, len(keys))[:base+len(keys)]
	pl.cnt = s.cnt[base:]
	clear(pl.cnt)
	for _, v := range vals {
		i, _ := slices.BinarySearch(pl.keys, v)
		pl.cnt[i]++
	}
	return pl
}

// emit writes the planned node into nd, laying its lists out back to
// back in the arena: the residual list, then one list per key in key
// order, each in match order.
func (s *compileScratch) emit(pl *nodePlan, nd *mNode, a *arena) {
	block := a.take(len(pl.list))
	if !pl.split {
		for i, e := range pl.list {
			a.reduce(&block[i], e, -1)
		}
		nd.resid = block
		return
	}
	nd.split = true
	nd.foff, nd.fbits = int32(pl.key.off), int32(pl.key.bits)
	// A stable counting sort deals the entries to their lists; filling the
	// slots in slot order keeps the residual criteria in the same order as
	// the entries that own them.
	listOf := func(e ordEntry) int { // 0 is the residual list
		i := exactOn(e.Match.Fields, pl.key)
		if i < 0 {
			return 0
		}
		fm := e.Match.Fields[i]
		li, _ := slices.BinarySearch(pl.keys, fm.Value&fm.F.Max())
		return li + 1
	}
	nl := len(pl.keys) + 2                     // bounds of the residual list and one list per key
	start := slices.Grow(s.start[:0], nl)[:nl] // list li occupies block[start[li]:start[li+1]]
	s.start = start
	start[0], start[1] = 0, len(pl.list)
	for _, c := range pl.cnt {
		start[1] -= c
	}
	for i, c := range pl.cnt {
		start[i+2] = start[i+1] + c
	}
	slots := slices.Grow(s.slots[:0], len(pl.list))[:len(pl.list)] // slot -> index into pl.list
	s.slots = slots
	fill := append(s.fill[:0], start...)
	s.fill = fill
	for i, e := range pl.list {
		li := listOf(e)
		slots[fill[li]] = int32(i)
		fill[li]++
	}
	for slot, i := range slots {
		e := pl.list[i]
		a.reduce(&block[slot], e, exactOn(e.Match.Fields, pl.key))
	}
	sub := func(li int) mList {
		if start[li] == start[li+1] {
			return nil
		}
		return block[start[li]:start[li+1]:start[li+1]]
	}
	nd.resid = sub(0)
	for i := range nd.resid {
		if p := nd.resid[i].e.Priority; i == 0 || p > nd.residTop {
			nd.residTop = p
		}
	}
	// Small value sets dodge the map: a linear scan over a handful of keys
	// is cheaper than hashing, and most compiled nodes key on a
	// low-cardinality state byte.
	if !pl.small() {
		nd.vals = make(map[uint64]mList, len(pl.keys))
		for i, k := range pl.keys {
			nd.vals[k] = sub(i + 1)
		}
		return
	}
	n := len(a.keys)
	a.keys = append(a.keys, pl.keys...)
	nd.keys = a.keys[n:len(a.keys):len(a.keys)]
	n = len(a.lists)
	for i := range pl.keys {
		a.lists = append(a.lists, sub(i+1))
	}
	nd.lists = a.lists[n:len(a.lists):len(a.lists)]
}

// compileMatcher builds the dispatch tree from entries (already in
// match order), working in s and leaving it reset.
func compileMatcher(entries []*FlowEntry, s *compileScratch) *matcher {
	defer s.reset()
	m := &matcher{}
	// Partition by exact EtherType, in order, remembering each type's
	// named ingress ports and which of them every entry names; entries
	// without an exact EtherType go on the wildcard list.
	nC, nPorts := 0, 0
	for i, fe := range entries {
		e := ordEntry{fe, int32(i)}
		k, ok := keyOf(e.Match)
		if !ok {
			s.wild = append(s.wild, e)
			nC += extraCrits(e, 0)
			continue
		}
		b := s.bucket(k.eth)
		pi := int32(-1)
		if k.in != anyInPort {
			pi = int32(slices.Index(b.ports, k.in))
			if pi < 0 {
				pi = int32(len(b.ports))
				b.ports = append(b.ports, k.in)
				b.named = append(b.named, 0)
				nPorts++
			}
			b.named[pi]++
		} else {
			b.nAny++
		}
		b.all = append(b.all, e)
		b.pidx = append(b.pidx, pi)
	}
	// Each named port's node holds that port's entries plus the EtherType's
	// port-wildcard entries; the any-port node holds the wildcard entries
	// alone, for packets on unnamed ports. One pass over the ordered list
	// deals every entry to the lists it belongs on, so each list comes out
	// in match order; the lists of every EtherType are carved from one
	// block. Duplicating the port-wildcard entries is what buys the single
	// probe.
	nE, nK := len(s.wild), 0
	for i := range s.buckets {
		b := &s.buckets[i]
		nE += len(b.all) + b.nAny*len(b.ports) // one more copy of each port wildcard per named port
	}
	s.block = slices.Grow(s.block, nE-len(s.wild))
	for bi := range s.buckets {
		b := &s.buckets[bi]
		lists := s.lists[:0]
		for i := 0; i <= len(b.ports); i++ { // last: any-port
			n := b.nAny
			if i < len(b.named) {
				n += b.named[i]
			}
			off := len(s.block)
			s.block = s.block[:off+n]
			lists = append(lists, s.block[off:off:off+n])
		}
		for i, e := range b.all {
			if pi := b.pidx[i]; pi >= 0 {
				lists[pi] = append(lists[pi], e)
				continue
			}
			for j := range lists {
				lists[j] = append(lists[j], e)
			}
		}
		s.lists = lists
		if b.nAny == 0 {
			lists = lists[:len(b.ports)]
		}
		for _, l := range lists {
			pl := s.planNode(l)
			s.plans = append(s.plans, pl)
			nC += pl.nCrit
			if pl.small() {
				nK += len(pl.keys)
			}
		}
	}
	a := &arena{
		ents:  make(mList, 0, nE),
		crits: make([]crit, 0, nC),
		keys:  make([]uint64, 0, nK),
		lists: make([]mList, 0, nK),
	}
	m.wild = a.take(len(s.wild))
	for i, e := range s.wild {
		a.reduce(&m.wild[i], e, -1)
	}
	nodes := make([]mNode, len(s.plans))
	for i := range s.plans {
		s.emit(&s.plans[i], &nodes[i], a)
	}
	// Hand the nodes to their EtherTypes in the walk order that planned
	// them: each type's named ports, then its any-port node. The port
	// lists are copied out of the scratch, one block for the whole table.
	m.eths = make([]ethNode, len(s.buckets))
	ports := make([]int32, 0, nPorts)
	pvec := make([]*mNode, 0, nPorts)
	next := 0
	for i := range s.buckets {
		b := &s.buckets[i]
		en := &m.eths[i]
		en.eth = b.eth
		if np := len(b.ports); np > 0 {
			ports = append(ports, b.ports...)
			en.ports = ports[len(ports)-np : len(ports) : len(ports)]
			for range b.ports {
				pvec = append(pvec, &nodes[next])
				next++
			}
			en.pvec = pvec[len(pvec)-np : len(pvec) : len(pvec)]
		}
		if b.nAny > 0 {
			en.any = &nodes[next]
			next++
		}
	}
	if len(m.eths) > smallEthMax {
		m.ethIdx = make(map[int32]int32, len(m.eths))
		for i := range m.eths {
			m.ethIdx[m.eths[i].eth] = int32(i)
		}
	}
	return m
}

// Compile (re)builds the table's compiled matcher from the current
// entries. The matcher is immutable: any later mutation drops it, and the
// next Compile — or, failing that, the next Lookup — builds a fresh one.
// Install is an off-hot-path phase, so compiling there never taxes packet
// time.
func (t *FlowTable) Compile() {
	s := scratchPool.Get().(*compileScratch)
	t.cur = compileMatcher(t.entries, s)
	scratchPool.Put(s)
}

// Compiled reports whether the table holds a matcher of its current
// entries (one was built and no mutation has dropped it since).
func (t *FlowTable) Compiled() bool {
	return t.cur != nil
}
