package telemetry

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
)

// testSnapshot renders a populated Counters, with the process-wide
// series set by hand, so exposition tests don't depend on the process.
func testSnapshot() Snapshot {
	var c Counters
	c.Events[KindProcess] = 40
	c.Events[KindPacketIn] = 2
	c.Runs = 1
	for v := int64(100); v <= 1000; v += 100 {
		c.HopWallNs.Observe(v)
		c.HeapDepth.Observe(v / 100)
	}
	c.Hops = 38
	c.PoolGets = 10
	c.MatcherLookups = 40
	c.FlowScanned = 52
	s := c.view()
	s.PoolMisses, s.PoolHitRate = 2, 0.8
	s.SweepWorkers = 2
	s.SweepWorkerBusyNs = []int64{5000, 4000}
	s.SweepWorkerJobs = []int64{3, 2}
	return s
}

// TestPromExposition pins the series names the CI smoke job greps for.
func TestPromExposition(t *testing.T) {
	s := testSnapshot()
	var sb strings.Builder
	WriteProm(&sb, &s)
	out := sb.String()

	for _, want := range []string{
		"smartsouth_events_total{kind=\"process\"} 40",
		"smartsouth_hop_latency_wall_ns_bucket{le=",
		"smartsouth_hop_latency_wall_ns_count 10",
		"smartsouth_event_heap_depth_count 10",
		"smartsouth_pool_hit_rate 0.8",
		"smartsouth_hops_total 38",
		"smartsouth_flowtable_fanout 1.3",
		"smartsouth_sweep_worker_busy_ns{worker=\"0\"} 5000",
		"smartsouth_sweep_worker_jobs{worker=\"1\"} 2",
		"smartsouth_flight_records_total 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n---\n%s", want, out)
		}
	}
	// Histogram buckets must be cumulative and end at count.
	if !strings.Contains(out, "smartsouth_hop_latency_wall_ns_bucket{le=\"+Inf\"} 10") {
		t.Error("missing +Inf bucket")
	}
	// Every # TYPE line names a valid type.
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if len(f) != 4 || (f[3] != "counter" && f[3] != "gauge" && f[3] != "histogram") {
				t.Errorf("malformed TYPE line %q", line)
			}
		}
	}
}

func TestSnapJSON(t *testing.T) {
	s := testSnapshot()
	if s.Events["process"] != 40 || s.FlowLookups != 40 || s.FlowFanout != 1.3 {
		t.Fatalf("snap %+v", s)
	}
	if s.HopWallNs.Count != 10 || s.HopWallNs.P50 < 500 {
		t.Fatalf("hop view %+v", s.HopWallNs)
	}
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back map[string]any
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if _, ok := back["hopWallNs"]; !ok {
		t.Fatal("JSON missing hopWallNs")
	}
}

func TestServeEndpoints(t *testing.T) {
	addr, err := Serve("127.0.0.1:0", Source{Snap: ProcessSnap})
	if err != nil {
		t.Fatal(err)
	}
	get := func(path string, status int) string {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != status {
			t.Fatalf("GET %s: status %d, want %d", path, resp.StatusCode, status)
		}
		b, _ := io.ReadAll(resp.Body)
		return string(b)
	}
	if metrics := get("/metrics", 200); !strings.Contains(metrics, "smartsouth_runs_total") {
		t.Fatalf("/metrics missing series:\n%s", metrics)
	}
	tele := get("/telemetry", 200)
	var snap map[string]any
	if err := json.Unmarshal([]byte(tele), &snap); err != nil {
		t.Fatalf("/telemetry not JSON: %v", err)
	}
	vars := get("/debug/vars", 200)
	if !strings.Contains(vars, "\"smartsouth\"") {
		t.Fatal("/debug/vars missing smartsouth expvar")
	}
	get("/traces", http.StatusNotFound) // the process has no timeline
}
