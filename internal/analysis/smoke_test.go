package analysis_test

import (
	"encoding/json"
	"reflect"
	"testing"

	"smartsouth/internal/controller"
	"smartsouth/internal/core"
	"smartsouth/internal/network"
	"smartsouth/internal/topo"
	"smartsouth/internal/verify"
)

// paperDeployment compiles the four paper services side by side on g
// under one backend, returning their programs exactly as a production
// deployment would hold them.
func paperDeployment(t *testing.T, g *topo.Graph, be core.Backend) []*core.Program {
	t.Helper()
	net := network.New(g, network.Options{})
	c := controller.New(net)
	b := core.WithBackend(be)
	if _, err := core.InstallSnapshot(c, g, 0, b); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	if _, err := core.InstallAnycast(c, g, 1, map[uint32][]int{1: {0, 5}, 2: {g.NumNodes() / 2}}, b); err != nil {
		t.Fatalf("anycast: %v", err)
	}
	if _, err := core.InstallBlackholeCounter(c, g, 2, b); err != nil {
		t.Fatalf("blackhole-counter: %v", err)
	}
	if _, err := core.InstallCritical(c, g, 3, b); err != nil {
		t.Fatalf("critical: %v", err)
	}
	return c.Programs()
}

func paperOptions() verify.Options {
	return verify.Options{
		HostEthTypes: []uint16{core.EthData},
		SlotTables:   core.SlotTables,
		SlotGroups:   core.SlotGroups,
	}
}

// TestPaperServicesOnRing20 is the headline smoke check: the full paper
// deployment — snapshot, anycast, blackhole counter and critical-node
// detection sharing Ring(20) — analyses clean. Zero errors, and the warn
// count is pinned so regressions in either the services or the analyzer
// surface here.
func TestPaperServicesOnRing20(t *testing.T) {
	g := topo.Ring(20)
	progs := paperDeployment(t, g, core.OF13)
	if len(progs) != 4 {
		t.Fatalf("expected 4 retained programs, got %d", len(progs))
	}

	fs := verify.CheckDeployment(progs, g, paperOptions())
	if errs := verify.Errors(fs); len(errs) != 0 {
		for _, f := range errs {
			t.Errorf("unexpected error finding: %s", f)
		}
		t.Fatalf("%d error findings on a clean deployment", len(errs))
	}
	if warns := verify.Warnings(fs); len(warns) != 0 {
		for _, f := range warns {
			t.Errorf("unexpected warn finding: %s", f)
		}
	}
}

// TestProveDFSOnRealSnapshot proves the traversal invariant for the
// actual compiled snapshot service — not a fixture — on topologies with
// and without back edges. Ring(8) has one back edge (crossed twice per
// direction: probe and bounce from each side); Tree(2,2) has none.
func TestProveDFSOnRealSnapshot(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *topo.Graph
	}{
		{"ring8", topo.Ring(8)},
		{"tree2x2", topo.Tree(2, 2)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net := network.New(tc.g, network.Options{})
			c := controller.New(net)
			if _, err := core.InstallSnapshot(c, tc.g, 0); err != nil {
				t.Fatalf("snapshot: %v", err)
			}
			for _, f := range verify.ProveDFS(c.Programs()[0], tc.g, paperOptions()) {
				t.Errorf("invariant violation: %s", f)
			}
		})
	}
}

// TestFindingsJSONRoundTrip pins the wire shape oflint -json emits.
func TestFindingsJSONRoundTrip(t *testing.T) {
	fs := starBlackholeFixture().check()
	if len(fs) == 0 {
		t.Fatal("fixture produced no findings")
	}
	raw, err := json.Marshal(fs)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back []verify.Finding
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !reflect.DeepEqual(fs, back) {
		t.Fatalf("round trip changed findings:\n  out: %v\n  in:  %v", fs, back)
	}
	if back[0].Severity != verify.Err {
		t.Errorf("severity did not survive the trip: %v", back[0].Severity)
	}
}
