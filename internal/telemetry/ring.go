package telemetry

// ring is the fixed-size record ring under both the flight recorder and
// the span tracer. Recording is a struct store into a preallocated array:
// no locks, no allocation, nothing proportional to history length; with a
// pointer-free T the array is never scanned by the garbage collector and
// its stores carry no write barriers. Sequence numbers are not stored per
// record; they follow from the ring position. Exactly one goroutine
// records (the owning lane's event loop); the readers are for after the
// run.
type ring[T any] struct {
	buf  []T
	mask uint64 // len(buf)-1; capacity is forced to a power of two
	seq  uint64
}

// newRing returns a ring retaining the last capacity records, rounded up
// to a power of two so the record path indexes with a mask instead of an
// integer division.
func newRing[T any](capacity int) ring[T] {
	cap2 := 1
	for cap2 < capacity {
		cap2 <<= 1
	}
	return ring[T]{buf: make([]T, cap2), mask: uint64(cap2 - 1)}
}

// Slot claims the next ring entry, cleared, for the caller to fill in
// place — half the memory traffic of building the record on the stack and
// copying it. The pointer is only valid until the next claim, so batch
// recorders that claim several slots before filling them must bound the
// outstanding claims by Cap.
//
//simlint:hotpath
func (r *ring[T]) Slot() *T {
	e := &r.buf[r.seq&r.mask]
	var zero T
	*e = zero
	r.seq++
	return e
}

// Cap returns the ring capacity — the number of records retained once
// the ring has wrapped.
func (r *ring[T]) Cap() int { return len(r.buf) }

// Len returns the number of retained records.
func (r *ring[T]) Len() int {
	if r.seq < uint64(len(r.buf)) {
		return int(r.seq)
	}
	return len(r.buf)
}

// Total returns the number of records written since creation (or Reset),
// including those the ring has evicted.
func (r *ring[T]) Total() uint64 { return r.seq }

// last returns the i-th of the n most recent records, oldest first
// (n <= Len).
func (r *ring[T]) last(n, i int) *T {
	return &r.buf[(r.seq-uint64(n)+uint64(i))&r.mask]
}

// Snapshot returns the retained records, oldest first.
func (r *ring[T]) Snapshot() []T {
	n := r.Len()
	out := make([]T, n)
	for i := range out {
		out[i] = *r.last(n, i)
	}
	return out
}

// Reset discards all records.
func (r *ring[T]) Reset() {
	r.seq = 0
	clear(r.buf)
}
