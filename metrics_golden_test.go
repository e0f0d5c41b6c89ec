package smartsouth

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestMetricsGolden pins the whole per-service view — install columns,
// runtime Table 2 columns, activity clocks and rule hits — of four
// co-installed services on Ring(20) under both backends. The watchdog
// round's counter reset and the knock-allow rule are the runtime
// transient installs; the monitor's second round runs the watchdog
// because a link went down between rounds.
func TestMetricsGolden(t *testing.T) {
	for _, be := range []string{"of13", "stateful"} {
		t.Run(be, func(t *testing.T) {
			d := Deploy(Ring(20), WithBackend(be), WithSeed(7))
			mon, err := d.InstallMonitor(0, true)
			if err != nil {
				t.Fatal(err)
			}
			any, err := d.InstallAnycast(map[uint32][]int{1: {5, 12}})
			if err != nil {
				t.Fatal(err)
			}
			cr, err := d.InstallCritical()
			if err != nil {
				t.Fatal(err)
			}
			pk, err := d.InstallPortKnock(10, []uint32{3, 1, 4})
			if err != nil {
				t.Fatal(err)
			}

			if _, err := mon.Round(); err != nil {
				t.Fatal(err)
			}
			if err := d.Net.SetLinkDown(7, 8, true); err != nil {
				t.Fatal(err)
			}
			if _, err := mon.Round(); err != nil {
				t.Fatal(err)
			}
			if err := d.Net.SetLinkDown(7, 8, false); err != nil {
				t.Fatal(err)
			}
			any.Send(1, 1, nil, d.Net.Sim.Now()+1)
			cr.Check(3, d.Net.Sim.Now()+1)
			if err := d.Run(); err != nil {
				t.Fatal(err)
			}
			for _, code := range []uint32{3, 1, 4} {
				pk.Knock(0, 7, code, d.Net.Sim.Now()+1)
				if err := d.Run(); err != nil {
					t.Fatal(err)
				}
				pk.Process()
			}
			if !pk.Open(7) {
				t.Fatal("client 7 not open after the full knock sequence")
			}

			got, err := json.MarshalIndent(d.MetricsSnapshot(), "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, '\n')
			path := filepath.Join("testdata", "ring20_metrics_"+be+".golden.json")
			if *updateGolden {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(want) {
				t.Errorf("metrics snapshot differs from %s (-update rewrites it)\n%s", path, got)
			}
		})
	}
}
