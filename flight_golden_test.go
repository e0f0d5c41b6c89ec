package smartsouth

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// observedConfigs are the deployments the flight and timeline goldens
// cover: the of13 backend on the classic single loop and on four shards,
// and the stateful backend on the single loop.
var observedConfigs = []struct {
	backend string
	shards  int
}{
	{"of13", 1},
	{"of13", 4},
	{"stateful", 1},
}

// ring20Observed runs snapshot + anycast on Ring(20) under one config with
// the causal tracer on and returns the flight dump (JSONL) and the span
// timeline (Chrome trace-event JSON) the run leaves behind.
func ring20Observed(t *testing.T, backend string, shards int) (flight, timeline []byte) {
	t.Helper()
	d := Deploy(Ring(20), WithSeed(7), WithTimeline(1<<14), WithBackend(backend), WithShards(shards))
	snap, err := d.InstallSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	ac, err := d.InstallAnycast(map[uint32][]int{1: {5, 12}})
	if err != nil {
		t.Fatal(err)
	}
	snap.Trigger(0, 0)
	ac.Send(1, 1, nil, 0)
	if err := d.Run(); err != nil {
		t.Fatal(err)
	}
	if res, err := snap.Collect(); err != nil || res == nil {
		t.Fatalf("snapshot did not complete: res=%v err=%v", res, err)
	}
	var fb, tb bytes.Buffer
	if err := d.DumpFlight(&fb); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteTimeline(&tb); err != nil {
		t.Fatal(err)
	}
	return fb.Bytes(), tb.Bytes()
}

// TestFlightTimelineGolden pins the content of the two per-execution
// artifacts a traced run leaves — the flight dump and the causal timeline
// — byte for byte, for every config in observedConfigs. Each config's
// section of the flight golden opens with a {"config": …} line; the
// timeline golden maps config to its trace-event array.
func TestFlightTimelineGolden(t *testing.T) {
	var flight bytes.Buffer
	timelines := make([]struct {
		Config string          `json:"config"`
		Events json.RawMessage `json:"events"`
	}, len(observedConfigs))
	for i, c := range observedConfigs {
		name := fmt.Sprintf("%s shards=%d", c.backend, c.shards)
		f, tl := ring20Observed(t, c.backend, c.shards)
		fmt.Fprintf(&flight, "{\"config\":%q}\n", name)
		flight.Write(f)
		timelines[i].Config = name
		timelines[i].Events = tl
	}
	tl, err := json.MarshalIndent(timelines, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	tl = append(tl, '\n')

	for _, g := range []struct {
		file string
		got  []byte
	}{
		{"ring20_flight.golden.jsonl", flight.Bytes()},
		{"ring20_timeline.golden.json", tl},
	} {
		path := filepath.Join("testdata", g.file)
		if *updateGolden {
			if err := os.WriteFile(path, g.got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("read golden (run with -update to create): %v", err)
		}
		if bytes.Equal(g.got, want) {
			continue
		}
		gl, wl := strings.Split(string(g.got), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("%s diverges at line %d:\n got: %s\nwant: %s", g.file, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("%s: %d lines, golden %d", g.file, len(gl), len(wl))
	}
}
