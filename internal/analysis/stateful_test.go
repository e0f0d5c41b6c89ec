package analysis_test

import (
	"strings"
	"testing"

	"smartsouth/internal/controller"
	"smartsouth/internal/core"
	"smartsouth/internal/network"
	"smartsouth/internal/topo"
	"smartsouth/internal/verify"
)

// TestStatefulServicesOnRing20 is the stateful twin of the headline
// smoke check — and the load-bearing test for the configuration-keyed
// walk: the stateful backend keeps the DFS state in switch state tables,
// so a bounce legitimately revisits the same (switch, in-port, packet)
// under a different store. A walk keyed on the packet alone would report
// every traversal as a forwarding loop.
func TestStatefulServicesOnRing20(t *testing.T) {
	g := topo.Ring(20)
	progs := paperDeployment(t, g, core.Stateful)
	fs := verify.CheckDeployment(progs, g, paperOptions())
	if errs := verify.Errors(fs); len(errs) != 0 {
		for _, f := range errs {
			t.Errorf("unexpected error finding: %s", f)
		}
		t.Fatalf("%d error findings on a clean stateful deployment", len(errs))
	}
	if warns := verify.Warnings(fs); len(warns) != 0 {
		for _, f := range warns {
			t.Errorf("unexpected warn finding: %s", f)
		}
	}
}

// TestPortKnockAnalyzesClean lints the knock guard under both backends,
// seeding the knock and guarded EtherTypes as host traffic so the keyed
// state table is exercised with a symbolic (unknown-client) flow key.
func TestPortKnockAnalyzesClean(t *testing.T) {
	for _, be := range core.Backends() {
		t.Run(be.Name(), func(t *testing.T) {
			g := topo.Grid(3, 4)
			net := network.New(g, network.Options{})
			c := controller.New(net)
			if _, err := core.InstallPortKnock(c, g, 0, 11, []uint32{3, 1, 4}, core.WithBackend(be)); err != nil {
				t.Fatal(err)
			}
			opts := paperOptions()
			opts.HostEthTypes = []uint16{core.EthKnock, core.EthGuarded}
			fs := verify.CheckDeployment(c.Programs(), g, opts)
			if errs := verify.Errors(fs); len(errs) != 0 {
				for _, f := range errs {
					t.Errorf("unexpected error finding: %s", f)
				}
			}
		})
	}
}

// TestProveDFSOnStatefulSnapshot proves the 4|E| traversal invariant for
// the stateful lowering: same walk as the OF13 proof, but the
// deterministic transition system now spans (packet, switch states).
func TestProveDFSOnStatefulSnapshot(t *testing.T) {
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
			if _, err := core.InstallSnapshot(c, tc.g, 0, core.WithBackend(core.Stateful)); err != nil {
				t.Fatalf("snapshot: %v", err)
			}
			for _, f := range verify.ProveDFS(c.Programs()[0], tc.g, paperOptions()) {
				t.Errorf("invariant violation: %s", f)
			}
		})
	}
}

// TestStateTableCollisions drives the composition checks specific to
// state tables: two programs writing transitions into the same table is
// an error, and flow rules composed into a table another program claims
// as a state table are dead (the state table wins the ID at execution).
func TestStateTableCollisions(t *testing.T) {
	fs := stateClashFixture().check()
	clashes := findingsOf(fs, verify.KindStateClash)
	if len(clashes) != 2 {
		t.Fatalf("state clashes = %v, want exactly 2 (merge + dual use)", clashes)
	}
	for _, f := range clashes {
		if f.Severity != verify.Err {
			t.Errorf("state clash severity = %v, want Err", f.Severity)
		}
		if !strings.Contains(f.Detail, "efsm-one") {
			t.Errorf("clash does not name the owning service: %s", f.Detail)
		}
	}
}

// TestStatefulLoopDetected pins that the store-keyed walk still catches
// real loops: an EFSM whose only transition bounces the packet back out
// its ingress port without ever changing state ping-pongs forever — the
// configuration (packet, stores) genuinely repeats.
func TestStatefulLoopDetected(t *testing.T) {
	fs := statefulLoopFixture().check()
	loops := findingsOf(fs, verify.KindLoop)
	if len(loops) == 0 {
		t.Fatalf("no loop detected on a state-preserving ping-pong: %v", fs)
	}
	if loops[0].Severity != verify.Err || loops[0].Service != "pingpong" {
		t.Errorf("loop = %+v, want Err blaming pingpong", loops[0])
	}
}

// TestStateTableSlotViolation: with the slot geometry provided, a state
// table outside its program's table range is flagged like a stray rule.
func TestStateTableSlotViolation(t *testing.T) {
	fs := stateSlotFixture().check()
	if got := findingsOf(fs, verify.KindSlotViolation); len(got) != 1 || got[0].Table != 99 {
		t.Fatalf("slot violations = %v, want exactly 1 at table 99", got)
	}
}
