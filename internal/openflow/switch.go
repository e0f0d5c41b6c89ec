package openflow

import (
	"slices"
	"sort"
)

// Emission is one packet leaving the switch on a port as a result of
// pipeline execution. Port is a physical port, PortController or PortSelf.
type Emission struct {
	Port int
	Pkt  *Packet
}

// Step records one matched flow entry during pipeline execution — the
// OF 1.3 rule-hit information (table, priority, cookie) plus the entry's
// action list, for the hop-trace layer. Steps are only collected when the
// switch has structured recording on (Switch.Record).
type Step struct {
	Table    int
	Priority int
	Cookie   string
	Actions  []Action
}

// GroupStep records one group-bucket decision during pipeline execution.
// Bucket is the index of the executed bucket, or -1 when no bucket ran
// (fast-failover group with no live bucket, or an uninstalled group).
type GroupStep struct {
	Group  uint32
	Type   GroupType
	Bucket int
}

// Result is the outcome of processing one packet through the pipeline.
type Result struct {
	// Emissions lists every packet copy the pipeline emitted, in action
	// execution order.
	Emissions []Emission
	// Matched reports whether any table matched; false means the packet
	// hit a table miss in table 0 (or a goto target) and was dropped.
	Matched bool
	// Steps lists the matched flow entries and GroupSteps the group-bucket
	// choices, in execution order; both are populated only when the switch
	// has structured recording on (Switch.Record).
	Steps      []Step
	GroupSteps []GroupStep

	// LastCookie is the cookie of the last matched flow entry, LastGroup
	// and LastBucket the last group-bucket decision (LastBucket -1 when
	// the group dropped the packet; LastGroup 0 when no group ran). These
	// are always populated — a few scalar stores per execution — so the
	// flight recorder can label records without Switch.Record's per-step
	// slice appends.
	LastCookie string
	LastGroup  uint32
	LastBucket int16

	// StoleInput reports that the last emission is the input packet
	// itself, not a clone: nothing mutated the packet after its final
	// Output, so execution transferred ownership instead of copying — the
	// unicast-forwarding fast path. The caller must then NOT release the
	// input (the emission owns it); every other emission is a pooled clone
	// as usual.
	StoleInput bool
}

// reset clears the result for reuse, keeping the backing arrays so a
// steady-state pipeline execution appends into already-grown slices.
func (r *Result) reset() {
	r.Emissions = r.Emissions[:0]
	r.Matched = false
	r.Steps = r.Steps[:0]
	r.GroupSteps = r.GroupSteps[:0]
	r.LastCookie = ""
	r.LastGroup = 0
	r.LastBucket = 0
	r.StoleInput = false
}

// ExecContext threads pipeline state through action execution. One
// context serves a whole ExecBatch call: the record flag is hoisted from
// the switch once per batch, so the per-packet pipeline tests a local
// flag instead of chasing the switch pointer. Contexts are
// reusable across batches and switches; the zero value is ready to use
// (see NewExecContext).
type ExecContext struct {
	sw         *Switch
	res        *Result
	groupDepth int
	record     bool

	// pend is 1+index of the emission whose snapshot is deferred: the
	// emission still references the live packet it was emitted from, and
	// materialize() clones it only if something mutates the packet before
	// execution ends. 0 means no deferral. This is what lets the common
	// unicast hop — match, mutate, output, done — forward the arriving
	// packet without copying its tag and label stack.
	pend int
}

// NewExecContext returns a reusable execution context for ExecBatch. The
// simulator owns one per event loop; tests that call ExecBatch directly
// allocate their own.
func NewExecContext() *ExecContext { return &ExecContext{} }

// emit records an emission of p's current state. The clone is deferred:
// the emission references p itself until a later mutation (or another
// emission) forces the snapshot via materialize.
func (x *ExecContext) emit(port int, p *Packet) {
	x.materialize()
	x.res.Emissions = append(x.res.Emissions, Emission{Port: port, Pkt: p})
	x.pend = len(x.res.Emissions)
}

// materialize snapshots the deferred emission, if any. The referenced
// packet is still in its emission-time state — nothing has mutated it
// since, or this would already have run — so cloning now is equivalent to
// having cloned at emit time. Mutating actions call this before touching
// the packet.
func (x *ExecContext) materialize() {
	if x.pend > 0 {
		em := &x.res.Emissions[x.pend-1]
		em.Pkt = em.Pkt.ClonePooled()
		x.pend = 0
	}
}

// step records a group-bucket decision: the last one always (scalar
// stores), the full sequence when structured recording is on.
func (x *ExecContext) step(g *GroupEntry, bucket int) {
	x.res.LastGroup = g.ID
	x.res.LastBucket = int16(bucket)
	if x.record {
		x.res.GroupSteps = append(x.res.GroupSteps, GroupStep{Group: g.ID, Type: g.Type, Bucket: bucket})
	}
}

// maxGroupDepth bounds group-to-group recursion. OpenFlow forbids group
// chaining loops; a small fixed depth keeps a buggy configuration from
// hanging the simulator.
const maxGroupDepth = 8

// Switch is a single OpenFlow 1.3 switch: numbered flow tables, a group
// table, physical ports 1..NumPorts with liveness state, and per-port
// traffic counters. It executes rules; it has no knowledge of what the
// rules implement.
type Switch struct {
	ID       int
	NumPorts int

	// Record enables structured step recording in Result.Steps and
	// Result.GroupSteps, used by the hop-trace layer. Cheap (no string
	// formatting), but off by default so the hot path stays
	// allocation-free.
	Record bool

	tables map[int]*FlowTable
	// tableList mirrors tables as a slice so ScanStats can aggregate
	// without a map iteration; tables are created lazily and never deleted,
	// so append-on-create keeps it exact.
	tableList []*FlowTable
	// dense is the hot-path table index: dense[id] aliases tables[id] for
	// small non-negative IDs (nil when absent), so the per-stage goto in
	// exec is an array load instead of a map probe. Table IDs beyond
	// denseTableMax (unused by the compiler) stay map-only.
	dense []*FlowTable
	// stateTables holds the stateful stages (EFSM transition tables). A
	// table ID names either a flow table or a state table; when both exist
	// the state table wins at execution time (and the verifier flags the
	// overlap as a configuration error).
	stateTables map[int]*StateTable
	stateList   []*StateTable
	// The group store is a pair of parallel arrays sorted by ID: group
	// sets are small (a few dozen per switch) and written only at install
	// time, so a binary search over a contiguous key array beats a map on
	// the per-hop path and gives ordered iteration for free. A slot holds
	// the installed entry and the switch's runtime state for it.
	gids   []uint32
	gslots []groupSlot
	live   []bool // index 1..NumPorts

	// xc is the scratch execution context backing the single-packet
	// Receive/Execute wrappers. The batch path receives its context from
	// the caller (the network event loop owns one per simulator), so this
	// one only serves direct Switch API use, which is single-threaded.
	xc ExecContext

	// RxPackets / TxPackets count per-port traffic (ofp_port_stats).
	RxPackets []uint64
	TxPackets []uint64
}

// NewSwitch returns a switch with the given identifier and port count.
// All ports start live. Tables are created lazily on first use.
func NewSwitch(id, numPorts int) *Switch {
	live := make([]bool, numPorts+1)
	for i := 1; i <= numPorts; i++ {
		live[i] = true
	}
	return &Switch{
		ID:          id,
		NumPorts:    numPorts,
		tables:      make(map[int]*FlowTable),
		stateTables: make(map[int]*StateTable),
		live:        live,
		RxPackets:   make([]uint64, numPorts+1),
		TxPackets:   make([]uint64, numPorts+1),
	}
}

// denseTableMax bounds the dense table index; every ID the slot layout
// hands out is far below it.
const denseTableMax = 1024

// Table returns the flow table with the given ID, creating it if needed.
func (sw *Switch) Table(id int) *FlowTable {
	t, ok := sw.tables[id]
	if !ok {
		t = &FlowTable{ID: id}
		sw.tables[id] = t
		sw.tableList = append(sw.tableList, t)
		if id >= 0 && id < denseTableMax {
			for len(sw.dense) <= id {
				sw.dense = append(sw.dense, nil)
			}
			sw.dense[id] = t
		}
	}
	return t
}

// tableAt is exec's table accessor: an array load for compiler-assigned
// IDs, the map for exotic ones.
func (sw *Switch) tableAt(id int) *FlowTable {
	if uint(id) < uint(len(sw.dense)) {
		return sw.dense[id]
	}
	return sw.tables[id]
}

// ScanStats sums the cumulative dispatch counters across all tables. The
// network layer diffs it at Run boundaries to feed the process-wide
// telemetry. State tables have no compiled matcher; their lookups count
// as fallback-path.
func (sw *Switch) ScanStats() ScanStats {
	var agg ScanStats
	for _, t := range sw.tableList {
		agg.Merge(t.ScanStats())
	}
	for _, t := range sw.stateList {
		l, s := t.ScanStats()
		agg.FallbackLookups += l
		agg.Scanned += s
	}
	return agg
}

// CompileDispatch brings every flow table's matcher in sync with its
// entries — the third phase of an install (lower → verify →
// compile-dispatch), invoked by the install and uninstall paths after
// they finish mutating the tables, so the packet path never pays for a
// compile. Only tables a mutation left without a matcher are compiled: a
// transaction pays for the tables it wrote to, so a group-mod or
// state-only program compiles nothing and a service install recompiles
// table 0 plus its own block. State tables are exact-match keyed already
// and need no compilation. Every table compiled here shares one pooled
// compile scratch.
func (sw *Switch) CompileDispatch() {
	s := scratchPool.Get().(*compileScratch)
	for _, t := range sw.tableList {
		if !t.Compiled() {
			t.cur = compileMatcher(t.entries, s)
		}
	}
	scratchPool.Put(s)
}

// TableIDs returns the IDs of all non-empty tables — flow and state — in
// ascending order, without creating any (unlike Table).
func (sw *Switch) TableIDs() []int {
	var ids []int
	for id, t := range sw.tables {
		if t.Len() > 0 {
			ids = append(ids, id)
		}
	}
	for id, t := range sw.stateTables {
		if t.Len() > 0 {
			if ft, ok := sw.tables[id]; !ok || ft.Len() == 0 {
				ids = append(ids, id)
			}
		}
	}
	sort.Ints(ids)
	return ids
}

// StateTab returns the state table with the given ID, creating an empty
// keyless one if absent.
func (sw *Switch) StateTab(id int) *StateTable {
	t, ok := sw.stateTables[id]
	if !ok {
		t = NewStateTable(id, nil)
		sw.stateTables[id] = t
		sw.stateList = append(sw.stateList, t)
	}
	return t
}

// StateTableByID returns the state table with the given ID without
// creating it, or nil.
func (sw *Switch) StateTableByID(id int) *StateTable { return sw.stateTables[id] }

// StateTableIDs returns the IDs of all non-empty state tables, ascending.
func (sw *Switch) StateTableIDs() []int {
	var ids []int
	for id, t := range sw.stateTables {
		if t.Len() > 0 {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	return ids
}

// AddStateEntries installs the transitions of one transaction into state
// table id as one batch (see StateTable.AddBatch), setting the table's
// flow key on first use. Neither es nor the entries are written to.
func (sw *Switch) AddStateEntries(id int, key []Field, es []*StateEntry) {
	if len(es) == 0 {
		return // no entries, no table: an empty state table would still shadow a flow table
	}
	t := sw.StateTab(id)
	if t.Len() == 0 && len(key) > 0 {
		t.Key = key
	}
	t.AddBatch(es)
}

// StateValue reads the current state of a flow key in state table id —
// the OpenState state-stats request a controller issues to inspect
// data-plane state (the TTL blackhole prober uses it under the stateful
// backend).
func (sw *Switch) StateValue(table int, key uint64) (uint64, bool) {
	t, ok := sw.stateTables[table]
	if !ok {
		return 0, false
	}
	return t.State(key), true
}

// ResetStateTable clears the state store of state table id, keeping its
// transitions. Missing tables are ignored.
func (sw *Switch) ResetStateTable(id int) {
	if t, ok := sw.stateTables[id]; ok {
		t.ResetState()
	}
}

// StateTransitions sums committed state writes across all state tables.
func (sw *Switch) StateTransitions() uint64 {
	var n uint64
	for _, t := range sw.stateList {
		n += t.Transitions
	}
	return n
}

// AddFlow installs a flow entry into table id.
func (sw *Switch) AddFlow(id int, e *FlowEntry) { sw.Table(id).Add(e) }

// AddFlows installs the rules of one transaction. They are grouped per
// table and each group is added as one batch: encounter order within a
// table is preserved, so first-add-wins tie-breaking comes out exactly as
// per-rule adds would leave it, at the batched cost (see
// FlowTable.AddBatch). A transaction names a handful of tables, so the
// grouping is a scan per table, not a map. Neither rules nor the entries
// are written to: a compiled program passes its own.
func (sw *Switch) AddFlows(rules []FlowRule) {
	batch := make([]*FlowEntry, 0, len(rules))
	done := make([]int, 0, 8) // tables already batched
	for i, r := range rules {
		if slices.Contains(done, r.Table) {
			continue
		}
		done = append(done, r.Table)
		batch = batch[:0]
		for _, q := range rules[i:] {
			if q.Table == r.Table {
				batch = append(batch, q.Entry)
			}
		}
		sw.Table(r.Table).AddBatch(batch)
	}
}

// groupPos returns the index of id in the sorted gids array, or the
// insertion point with found == false.
func (sw *Switch) groupPos(id uint32) (int, bool) {
	lo, hi := 0, len(sw.gids)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if sw.gids[mid] < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(sw.gids) && sw.gids[lo] == id
}

// AddGroup installs a group entry, replacing any previous entry with the
// same ID (group-mod semantics). The entry is not written to.
func (sw *Switch) AddGroup(g *GroupEntry) { sw.addGroup(g, make([]uint64, len(g.Buckets))) }

// AddGroups installs the group entries of one transaction; their bucket
// counters share one allocation.
func (sw *Switch) AddGroups(gs []*GroupEntry) {
	nb := 0
	for _, g := range gs {
		nb += len(g.Buckets)
	}
	hits := make([]uint64, nb)
	sw.gids, sw.gslots = slices.Grow(sw.gids, len(gs)), slices.Grow(sw.gslots, len(gs))
	for _, g := range gs {
		n := len(g.Buckets)
		sw.addGroup(g, hits[:n:n])
		hits = hits[n:]
	}
}

// addGroup puts g in a fresh slot — zero round-robin pointer, unknown
// liveness, the given zeroed bucket counters — under its ID.
func (sw *Switch) addGroup(g *GroupEntry, hits []uint64) {
	i, found := sw.groupPos(g.ID)
	if !found {
		sw.gids = slices.Insert(sw.gids, i, g.ID)
		sw.gslots = slices.Insert(sw.gslots, i, groupSlot{})
	}
	sw.gslots[i] = groupSlot{g: g, hits: hits}
}

// GroupByID returns the installed group entry, or nil.
func (sw *Switch) GroupByID(id uint32) *GroupEntry {
	if i, found := sw.groupPos(id); found {
		return sw.gslots[i].g
	}
	return nil
}

// BucketHits returns how often each bucket of group id has executed
// (ofp_bucket_counter, in bucket order), or nil when no such group is
// installed.
func (sw *Switch) BucketHits(id uint32) []uint64 {
	if i, found := sw.groupPos(id); found {
		return slices.Clone(sw.gslots[i].hits)
	}
	return nil
}

// CounterValue exposes the round-robin pointer of group id for tests and
// diagnostics; ok is false when no such group is installed. The data plane
// itself can only learn the value through bucket side effects.
func (sw *Switch) CounterValue(id uint32) (v int, ok bool) {
	if i, found := sw.groupPos(id); found {
		return int(sw.gslots[i].rr), true
	}
	return 0, false
}

// SetCounter overwrites the round-robin pointer of group id. The
// controller can do this out of band (a group-mod resets bucket state);
// tests use it too. Missing and bucketless groups are left alone.
func (sw *Switch) SetCounter(id uint32, v int) {
	if i, found := sw.groupPos(id); found && len(sw.gslots[i].hits) > 0 {
		sw.gslots[i].rr = int32(v % len(sw.gslots[i].hits))
	}
}

// RemoveGroup deletes a group entry (group-mod DELETE); missing groups
// are ignored, like OFPGC_DELETE.
func (sw *Switch) RemoveGroup(id uint32) {
	if i, found := sw.groupPos(id); found {
		sw.gids = slices.Delete(sw.gids, i, i+1)
		sw.gslots = slices.Delete(sw.gslots, i, i+1)
	}
}

// RemoveGroupRange deletes every group with lo <= ID < hi, returning the
// count.
func (sw *Switch) RemoveGroupRange(lo, hi uint32) int {
	if hi < lo {
		return 0
	}
	i, _ := sw.groupPos(lo)
	j, _ := sw.groupPos(hi)
	sw.gids = slices.Delete(sw.gids, i, j)
	sw.gslots = slices.Delete(sw.gslots, i, j) // zeroes the tail: no entry lingers
	return j - i
}

// ClearTable removes every entry of table id — flow entries, transition
// entries and the state store alike — returning the count.
func (sw *Switch) ClearTable(id int) int {
	n := 0
	if t, ok := sw.tables[id]; ok {
		n += t.Clear()
	}
	if t, ok := sw.stateTables[id]; ok {
		n += t.Clear()
	}
	return n
}

// Groups returns all installed group entries in ascending ID order.
func (sw *Switch) Groups() []*GroupEntry {
	out := make([]*GroupEntry, len(sw.gslots))
	for i := range sw.gslots {
		out[i] = sw.gslots[i].g
	}
	return out
}

// stateTable is the pipeline's hot-path accessor: the len check is one
// field load, so a switch with no stateful stages (the of13 backend)
// never pays the per-stage map lookup.
func (sw *Switch) stateTable(table int) (*StateTable, bool) {
	if len(sw.stateTables) == 0 {
		return nil, false
	}
	st, ok := sw.stateTables[table]
	return st, ok
}

// PortLive reports the liveness of a physical port. Out-of-range ports are
// never live.
func (sw *Switch) PortLive(port int) bool {
	return port >= 1 && port <= sw.NumPorts && sw.live[port]
}

// SetPortLive sets the liveness of a physical port; the network layer
// calls it when a link goes down or comes back up. Any change invalidates
// the fast-failover groups' cached live-bucket choice — liveness flips
// are rare, so a blanket invalidation beats tracking watch ports.
func (sw *Switch) SetPortLive(port int, up bool) {
	if port >= 1 && port <= sw.NumPorts && sw.live[port] != up {
		sw.live[port] = up
		for i := range sw.gslots {
			sw.gslots[i].ffLive = 0
		}
	}
}

func (sw *Switch) applyGroup(x *ExecContext, id uint32, p *Packet) {
	i, found := sw.groupPos(id)
	if !found {
		x.res.LastGroup = id
		x.res.LastBucket = -1
		if x.record {
			x.res.GroupSteps = append(x.res.GroupSteps, GroupStep{Group: id, Bucket: -1})
		}
		return
	}
	if x.groupDepth >= maxGroupDepth {
		return
	}
	x.groupDepth++
	sw.gslots[i].apply(x, p)
	x.groupDepth--
}

// Receive runs one packet through the pipeline starting at table 0. The
// packet is cloned internally, so the caller's packet is never mutated.
// inPort is the ingress physical port (or PortController for a packet-out
// that requests pipeline processing). The returned Result is fresh and
// belongs to the caller. Receive is the thin single-packet wrapper over
// ExecBatch kept for tests and direct API use; the network's event loop
// batches executions per switch instead.
func (sw *Switch) Receive(pkt *Packet, inPort int) Result {
	p := pkt.ClonePooled()
	p.InPort = inPort
	in := [1]*Packet{p}
	out := [1]Result{}
	sw.ExecBatch(&sw.xc, in[:], out[:])
	if !out[0].StoleInput {
		p.Release()
	}
	return out[0]
}

// ExecBatch runs every packet of in through the pipeline in order,
// writing the outcome of in[i] into out[i] (each reset first, reusing its
// backing arrays). It is the one execution entry point: the event loop,
// the sweep runner and the single-packet wrapper all land here, and the
// record flag is hoisted into the context once per batch.
//
// Ownership: the input packets are mutated in place — each must carry its
// ingress port in Packet.InPort — and remain owned by the caller, which
// releases (or reuses) them after consuming the results, EXCEPT when a
// result reports StoleInput: its last emission then IS the input packet
// (ownership moved to the emission, which the caller hands off or
// releases as usual) and the input must not be released separately. All
// other emission packets are pool-backed clones owned by the caller: each
// must be handed off or released exactly once. The steady-state path
// allocates nothing.
//
//simlint:hotpath
func (sw *Switch) ExecBatch(x *ExecContext, in []*Packet, out []Result) {
	x.sw = sw
	x.record = sw.Record
	for i, p := range in {
		sw.exec(x, p, &out[i])
	}
	x.sw, x.res = nil, nil
}

// exec runs one packet of a batch through the pipeline.
func (sw *Switch) exec(x *ExecContext, p *Packet, res *Result) {
	res.reset()
	x.res, x.groupDepth, x.pend = res, 0, 0
	if p.InPort >= 1 && p.InPort <= sw.NumPorts {
		sw.RxPackets[p.InPort]++
	}

	table := 0
	for {
		// A stateful stage claims its table ID outright: transitions are
		// looked up against (state, packet) and a matched entry may write
		// the flow's next state before the pipeline continues. The len
		// guard keeps pure-of13 switches off the map-lookup path.
		if st, ok := sw.stateTable(table); ok && st.Len() > 0 {
			key := st.FlowKey(p)
			se := st.Lookup(key, p)
			if se == nil {
				break
			}
			res.Matched = true
			res.LastCookie = se.Cookie
			if x.record {
				res.Steps = append(res.Steps, Step{
					Table: table, Priority: se.Priority, Cookie: se.Cookie, Actions: se.Actions,
				})
			}
			for _, a := range se.Actions {
				applyAction(x, a, p)
			}
			st.Commit(key, se)
			if se.Goto == NoGoto || se.Goto <= table {
				break // last stage, or an illegal backward goto
			}
			table = se.Goto
			continue
		}
		t := sw.tableAt(table)
		if t == nil {
			break
		}
		e := t.Lookup(p)
		if e == nil {
			break
		}
		res.Matched = true
		res.LastCookie = e.Cookie
		if x.record {
			res.Steps = append(res.Steps, Step{
				Table: table, Priority: e.Priority, Cookie: e.Cookie, Actions: e.Actions,
			})
		}
		for _, a := range e.Actions {
			applyAction(x, a, p)
		}
		if e.Goto == NoGoto || e.Goto <= table {
			// OpenFlow mandates forward-only goto; treat violation as a
			// configuration bug and stop rather than loop.
			break
		}
		table = e.Goto
	}

	if x.pend > 0 {
		// The last emission still references the input packet and nothing
		// mutated it after the Output: transfer ownership to the emission
		// instead of cloning. The caller sees StoleInput and skips its
		// release of the input.
		res.StoleInput = true
		x.pend = 0
	}

	for _, em := range res.Emissions {
		if em.Port >= 1 && em.Port <= sw.NumPorts {
			sw.TxPackets[em.Port]++
		}
	}
}

// Execute runs an explicit action list against the packet without any
// table lookup — the semantics of an OFPT_PACKET_OUT carrying actions.
// The caller's packet is not mutated.
func (sw *Switch) Execute(pkt *Packet, actions []Action) Result {
	p := pkt.ClonePooled()
	res := Result{Matched: true}
	x := &ExecContext{sw: sw, res: &res, record: sw.Record}
	for _, a := range actions {
		applyAction(x, a, p)
	}
	stolen := x.pend > 0 // the last emission took the internal clone
	x.pend = 0
	for _, em := range res.Emissions {
		if em.Port >= 1 && em.Port <= sw.NumPorts {
			sw.TxPackets[em.Port]++
		}
	}
	if stolen {
		res.StoleInput = true
	} else {
		p.Release()
	}
	return res
}

// FlowEntryCount returns the total number of flow entries installed.
func (sw *Switch) FlowEntryCount() int {
	n := 0
	for _, t := range sw.tables {
		n += t.Len()
	}
	return n
}

// GroupCount returns the number of group entries installed.
func (sw *Switch) GroupCount() int { return len(sw.gids) }

// ConfigBytes estimates the total hardware footprint of the installed
// configuration (flow, state and group entries), for the rule-space
// experiment.
func (sw *Switch) ConfigBytes() int {
	n := 0
	for _, t := range sw.tables {
		n += t.Bytes()
	}
	for _, t := range sw.stateTables {
		n += t.Bytes()
	}
	for i := range sw.gslots {
		n += sw.gslots[i].g.Bytes()
	}
	return n
}
