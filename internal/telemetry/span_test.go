package telemetry

import (
	"reflect"
	"testing"
	"unsafe"
)

// Like the flight record, a span record is pure memory traffic on the
// execution path: it must stay small and pointer-free so the ring is
// never GC-scanned and its stores carry no write barriers.
func TestSpanRecordCompactAndPointerFree(t *testing.T) {
	if s := unsafe.Sizeof(SpanRecord{}); s > 64 {
		t.Fatalf("SpanRecord is %d bytes, must stay <= 64", s)
	}
	if typ := reflect.TypeOf(SpanRecord{}); typ.Comparable() == false || pointersIn(typ) {
		t.Fatal("SpanRecord must stay pointer-free")
	}
}

func TestSpanLane(t *testing.T) {
	if got := SpanLane(uint64(3)<<32 | 17); got != 2 {
		t.Fatalf("SpanLane(lane-2 id) = %d, want 2", got)
	}
	if got := SpanLane(0); got != -1 {
		t.Fatalf("SpanLane(0) = %d, want -1 (synthetic root parent)", got)
	}
}

func TestSpansRing(t *testing.T) {
	s := NewSpans(10)
	if s.Cap() != 16 {
		t.Fatalf("Cap() = %d, want 16 (pow2 rounding of 10)", s.Cap())
	}
	for i := 0; i < 20; i++ {
		r := s.Slot()
		r.Span = uint64(i + 1)
		r.At = int64(i)
	}
	if s.Total() != 20 {
		t.Fatalf("Total() = %d, want 20", s.Total())
	}
	if s.Len() != 16 {
		t.Fatalf("Len() = %d, want 16 (ring retains capacity)", s.Len())
	}
	snap := s.Snapshot()
	if len(snap) != 16 {
		t.Fatalf("Snapshot() has %d records, want 16", len(snap))
	}
	for i, r := range snap {
		if want := int64(i + 4); r.At != want {
			t.Fatalf("Snapshot()[%d].At = %d, want %d (oldest first)", i, r.At, want)
		}
	}
	// Slot must hand back a cleared record even when recycling.
	r := s.Slot()
	if *r != (SpanRecord{}) {
		t.Fatalf("recycled Slot() not cleared: %+v", *r)
	}
	s.Reset()
	if s.Total() != 0 || s.Len() != 0 {
		t.Fatalf("after Reset: Total=%d Len=%d, want 0/0", s.Total(), s.Len())
	}
}

func TestSpansDefaultCap(t *testing.T) {
	if got := NewSpans(0).Cap(); got != DefaultSpanCap {
		t.Fatalf("NewSpans(0).Cap() = %d, want DefaultSpanCap=%d", got, DefaultSpanCap)
	}
}
