package telemetry

import (
	"os"
	"testing"
)

// TestRecordPathZeroAlloc guards the always-on budget: every operation
// on the hot record path must be allocation-free, including the
// stack-address shard probe (which must not force an escape).
func TestRecordPathZeroAlloc(t *testing.T) {
	if os.Getenv("RACE") != "" {
		t.Skip("allocation counts differ under the race detector")
	}
	var c Counter
	var h Histogram
	var l LocalHist
	f := NewFlight(64, 0)
	cases := []struct {
		name string
		fn   func()
	}{
		{"Counter.Add", func() { c.Add(3) }},
		{"Counter.Load", func() { _ = c.Load() }},
		{"Histogram.Observe", func() { h.Observe(1234) }},
		{"LocalHist.Observe", func() { l.Observe(1234) }},
		{"LocalHist.FlushTo", func() { l.FlushTo(&h) }},
		{"Flight.Record", func() {
			f.Record(FlightRecord{Kind: FlightSend, Sw: 1, Port: 2, To: 3, Eth: 0x0901})
		}},
		{"Flight.Slot", func() {
			r := f.Slot()
			r.Kind, r.Trace, r.SpanSeq = FlightExec, 1, 2
		}},
	}
	for _, tc := range cases {
		if n := testing.AllocsPerRun(200, tc.fn); n != 0 {
			t.Errorf("%s allocates %.1f per op, want 0", tc.name, n)
		}
	}
}

func BenchmarkCounterAdd(b *testing.B) {
	var c Counter
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

func BenchmarkLocalHistObserve(b *testing.B) {
	var l LocalHist
	for i := 0; i < b.N; i++ {
		l.Observe(int64(i))
	}
}

func BenchmarkFlightRecord(b *testing.B) {
	f := NewFlight(DefaultFlightCap, 0)
	r := FlightRecord{Kind: FlightSend, Sw: 1, Port: 2, To: 3, Eth: 0x0901}
	for i := 0; i < b.N; i++ {
		f.Record(r)
	}
}
