package core

import "smartsouth/internal/openflow"

// Slot layout. Every deployed service occupies one or more *slots*, each
// slot owning a contiguous block of flow-table IDs and a group-ID range,
// so services compose on the same switches without colliding. Table 0 is
// shared (it holds the per-EtherType steering rules); slot s owns tables
// [SlotTableBase + s*TablesPerSlot, SlotTableBase + (s+1)*TablesPerSlot)
// and groups [s << GroupBitsPerSlot, (s+1) << GroupBitsPerSlot).
const (
	// SlotTableBase is the first table ID owned by slot 0 (table 0 is the
	// shared steering table).
	SlotTableBase = 1
	// TablesPerSlot is the table-ID stride between slots.
	TablesPerSlot = 10
	// GroupBitsPerSlot is the width of the per-slot group-ID space: slot s
	// owns group IDs with the slot number in the bits above it.
	GroupBitsPerSlot = 20
)

// Slot returns conventional table/group assignments for the slot-th
// service on a network (slot 0, 1, 2, …): the service's first table, its
// finish table, and the base of its group-ID range.
func Slot(slot int) (t0, tFin int, groupBase uint32) {
	t0 = SlotTableBase + slot*TablesPerSlot
	return t0, t0 + 1, uint32(slot) << GroupBitsPerSlot
}

// SlotTables returns the half-open table-ID range [lo, hi) owned by slot.
func SlotTables(slot int) (lo, hi int) {
	return SlotTableBase + slot*TablesPerSlot, SlotTableBase + (slot+1)*TablesPerSlot
}

// SlotGroups returns the half-open group-ID range [lo, hi) owned by slot.
func SlotGroups(slot int) (lo, hi uint32) {
	return uint32(slot) << GroupBitsPerSlot, uint32(slot+1) << GroupBitsPerSlot
}

// SlotAllocator hands out service slots sequentially. It replaces the
// ad-hoc nextSlot counters the deployment facades used to keep: services
// that span several slots (chaincast: one per chain stage; monitor: the
// watchdog plus its inner snapshot) reserve a range in one call.
type SlotAllocator struct {
	next int
}

// NewSlotAllocator returns an allocator whose next slot is first.
func NewSlotAllocator(first int) *SlotAllocator {
	return &SlotAllocator{next: first}
}

// Next reserves and returns a single slot.
func (a *SlotAllocator) Next() int { return a.Reserve(1) }

// Reserve reserves n consecutive slots (n < 1 is treated as 1) and
// returns the first.
func (a *SlotAllocator) Reserve(n int) int {
	if n < 1 {
		n = 1
	}
	s := a.next
	a.next += n
	return s
}

// SlotSpan reports how many slots a compiled program occupies, for
// allocators replaying a retained program set.
func SlotSpan(p *openflow.Program) int {
	if p.Slots < 1 {
		return 1
	}
	return p.Slots
}
