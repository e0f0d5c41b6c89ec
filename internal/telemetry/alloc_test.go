package telemetry

import (
	"os"
	"testing"
)

// TestRecordPathZeroAlloc guards the always-on budget: every operation
// on the hot record path, and the fold that ends every Run, must be
// allocation-free.
func TestRecordPathZeroAlloc(t *testing.T) {
	if os.Getenv("RACE") != "" {
		t.Skip("allocation counts differ under the race detector")
	}
	var l LocalHist
	var c, staged Counters
	staged.Hops = 3
	staged.HopWallNs.Observe(1234)
	f := NewFlight(64, 0)
	cases := []struct {
		name string
		fn   func()
	}{
		{"LocalHist.Observe", func() { l.Observe(1234) }},
		{"Counters.Add", func() { c.Add(&staged) }},
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
