package telemetry_test

import (
	"testing"

	"smartsouth"
	"smartsouth/internal/openflow"
)

// TestTimelineRunRecordCounts: the causal span rides on the exec record
// instead of claiming a record of its own. On a timeline run the
// deployment's span counter reads exactly the traced executions, and its
// flight-record counter what the same run writes without the timeline.
func TestTimelineRunRecordCounts(t *testing.T) {
	run := func(shards int, opts ...smartsouth.Option) (flight, spans int64, traced int) {
		d := smartsouth.Deploy(smartsouth.Ring(20), append(opts, smartsouth.WithShards(shards))...)
		d.Net.ObserveExec(func(_, _ int, p *openflow.Packet, _ *openflow.Result) {
			if p.TraceID != 0 {
				traced++
			}
		})
		snap, err := d.InstallSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		snap.Trigger(0, 0)
		if err := d.Run(); err != nil {
			t.Fatal(err)
		}
		tel := d.Net.Telemetry()
		return tel.FlightRecords, tel.SpanRecords, traced
	}
	for _, shards := range []int{1, 4} {
		flight, spans, traced := run(shards, smartsouth.WithTimeline(1<<14))
		plain, _, _ := run(shards)
		if traced == 0 || spans != int64(traced) {
			t.Errorf("shards=%d: span_records_total is %d, want the %d traced executions", shards, spans, traced)
		}
		if flight != plain {
			t.Errorf("shards=%d: flight_records_total is %d with the timeline, %d without", shards, flight, plain)
		}
	}
}
