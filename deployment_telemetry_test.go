package smartsouth

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// ownCounts are the deterministic series of a counter set: a pure
// function of (topology, services, seed, shard count), so a deployment
// must read the same whether it ran alone or beside others.
type ownCounts struct {
	Events                               map[string]int64
	Hops, PacketIns                      int64
	Matcher, Fallback, Scanned, Commits  int64
	Runs, RunSimNs, QueueWait, WindowSim int64
}

func countsOf(s Telemetry) ownCounts {
	return ownCounts{
		Events: s.Events, Hops: s.Hops, PacketIns: s.PacketIns,
		Matcher: s.MatcherLookups, Fallback: s.FallbackLookups, Scanned: s.FlowScanned,
		Commits: s.StateCommits, Runs: s.Runs,
		RunSimNs: s.RunSimNs.Count, QueueWait: s.QueueWait.Count, WindowSim: s.WindowSimNs.Count,
	}
}

// plus returns a+b, or a-b with sign -1.
func (a ownCounts) plus(b ownCounts, sign int64) ownCounts {
	ev := map[string]int64{}
	for k, v := range a.Events {
		ev[k] = v + sign*b.Events[k]
	}
	return ownCounts{
		Events: ev, Hops: a.Hops + sign*b.Hops, PacketIns: a.PacketIns + sign*b.PacketIns,
		Matcher: a.Matcher + sign*b.Matcher, Fallback: a.Fallback + sign*b.Fallback,
		Scanned: a.Scanned + sign*b.Scanned, Commits: a.Commits + sign*b.Commits,
		Runs: a.Runs + sign*b.Runs, RunSimNs: a.RunSimNs + sign*b.RunSimNs,
		QueueWait: a.QueueWait + sign*b.QueueWait, WindowSim: a.WindowSim + sign*b.WindowSim,
	}
}

func (a ownCounts) String() string {
	type raw ownCounts // without the String method
	return fmt.Sprintf("%+v", raw(a))
}

// TestDeploymentsCountOwnTelemetry: every network owns its counters. Two
// deployments run at the same time on their own goroutines must each read
// exactly what the same deployment reads when it runs alone, and the
// process view must move by exactly their sum.
func TestDeploymentsCountOwnTelemetry(t *testing.T) {
	ring := func(shards int) (*Deployment, error) {
		d := Deploy(Ring(20), WithShards(shards))
		snap, err := d.InstallSnapshot()
		if err != nil {
			return nil, err
		}
		for i := 0; i < 3; i++ {
			snap.Trigger(i, d.Net.Sim.Now()+1)
			if err := d.Run(); err != nil {
				return nil, err
			}
		}
		return d, nil
	}
	random := func(shards int) (*Deployment, error) {
		d := Deploy(RandomConnected(60, 30, 7), WithShards(shards))
		snap, err := d.InstallSnapshot()
		if err != nil {
			return nil, err
		}
		cr, err := d.InstallCritical()
		if err != nil {
			return nil, err
		}
		snap.Trigger(0, 0)
		cr.Check(5, 0)
		if err := d.Run(); err != nil {
			return nil, err
		}
		cr.Check(17, d.Net.Sim.Now()+1)
		return d, d.Run()
	}
	scenarios := []func(int) (*Deployment, error){ring, random}
	for _, shards := range []int{1, 2} {
		alone := make([]ownCounts, len(scenarios))
		for i, run := range scenarios {
			d, err := run(shards)
			if err != nil {
				t.Fatal(err)
			}
			alone[i] = countsOf(d.Net.Telemetry())
			if alone[i].Hops == 0 || alone[i].Runs == 0 {
				t.Fatalf("shards=%d scenario %d counted nothing: %v", shards, i, alone[i])
			}
		}

		before := countsOf(TelemetrySnapshot())
		together := make([]ownCounts, len(scenarios))
		errs := make([]error, len(scenarios))
		var wg sync.WaitGroup
		for i, run := range scenarios {
			wg.Add(1)
			go func(i int, run func(int) (*Deployment, error)) {
				defer wg.Done()
				d, err := run(shards)
				if errs[i] = err; err == nil {
					together[i] = countsOf(d.Net.Telemetry())
				}
			}(i, run)
		}
		wg.Wait()
		moved := countsOf(TelemetrySnapshot()).plus(before, -1)

		for i := range scenarios {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			if together[i].String() != alone[i].String() {
				t.Errorf("shards=%d scenario %d: concurrent run counted\n%v\nalone it counted\n%v", shards, i, together[i], alone[i])
			}
		}
		if sum := together[0].plus(together[1], 1); moved.String() != sum.String() {
			t.Errorf("shards=%d: the process view moved by\n%v\nwant the deployments' sum\n%v", shards, moved, sum)
		}
	}
}

// TestTracesServeTheirOwnDeployment: /traces belongs to the deployment
// that serves it. Two traced deployments, each with its own server, must
// each serve their own span set — not the most recently built one's.
func TestTracesServeTheirOwnDeployment(t *testing.T) {
	var ds []*Deployment
	var addrs []string
	for _, n := range []int{8, 12} {
		d := Deploy(Ring(n), WithTimeline(0))
		snap, err := d.InstallSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		snap.Trigger(0, 0)
		if err := d.Run(); err != nil {
			t.Fatal(err)
		}
		addr, err := d.ServeTelemetry("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		ds, addrs = append(ds, d), append(addrs, addr)
	}
	for i, d := range ds {
		var want bytes.Buffer
		if err := d.WriteTimeline(&want); err != nil {
			t.Fatal(err)
		}
		if got := httpGet(t, addrs[i], "/traces"); got != want.String() {
			t.Errorf("deployment %d: /traces served %d bytes, its own timeline is %d bytes", i, len(got), want.Len())
		}
	}
}

// TestServiceSeriesMatchMetricsSnapshot: a deployment's /metrics carries
// its per-service Table 2 counters, and they read what MetricsSnapshot
// reads.
func TestServiceSeriesMatchMetricsSnapshot(t *testing.T) {
	d := Deploy(Ring(20))
	snap, err := d.InstallSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	any, err := d.InstallAnycast(map[uint32][]int{1: {5, 12}})
	if err != nil {
		t.Fatal(err)
	}
	snap.Trigger(0, 0)
	any.Send(1, 1, nil, 0)
	if err := d.Run(); err != nil {
		t.Fatal(err)
	}
	addr, err := d.ServeTelemetry("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	series := map[string]int64{}
	sc := bufio.NewScanner(strings.NewReader(httpGet(t, addr, "/metrics")))
	for sc.Scan() {
		if name, rest, ok := strings.Cut(sc.Text(), " "); ok && strings.HasPrefix(name, "smartsouth_service_") {
			v, err := strconv.ParseInt(rest, 10, 64)
			if err != nil {
				t.Fatalf("bad sample %q: %v", sc.Text(), err)
			}
			series[name] = v
		}
	}
	ms := d.MetricsSnapshot()
	if len(ms) != 2 {
		t.Fatalf("MetricsSnapshot has %d services, want 2", len(ms))
	}
	want := map[string]int64{}
	for _, m := range ms {
		if m.InBandMsgs == 0 || m.TriggerPackets == 0 {
			t.Fatalf("%s did not run: %+v", m.Service, m)
		}
		label := fmt.Sprintf("{service=%q,slot=\"%d\"}", m.Service, m.Slot)
		for name, v := range map[string]int{
			"inband_msgs": m.InBandMsgs, "inband_bytes": m.InBandBytes,
			"trigger_packets": m.TriggerPackets, "packet_ins": m.PacketIns, "flow_mods": m.FlowMods,
		} {
			want["smartsouth_service_"+name+"_total"+label] = int64(v)
		}
	}
	if fmt.Sprint(series) != fmt.Sprint(want) {
		t.Errorf("/metrics service series\n%v\nMetricsSnapshot\n%v", series, want)
	}
}

func httpGet(t *testing.T, addr, path string) string {
	t.Helper()
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d, %v", path, resp.StatusCode, err)
	}
	return string(body)
}
