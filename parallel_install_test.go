package smartsouth

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"

	"smartsouth/internal/dump"
	"smartsouth/internal/verify"
)

// deployEverywhereFingerprint deploys every service on g under one
// backend, triggers each once, and renders all that compile, check and
// install produce: every program (text and JSON dump), its full static
// check, the Table-2 counts of the runs and every switch afterwards
// (rules, groups, state and hit counters). Services whose EtherTypes
// clash are split across deployments as in the golden suite. Dumps are
// recorded as one digest line each, naming what they dump.
func deployEverywhereFingerprint(t *testing.T, g *Graph, backend string) string {
	t.Helper()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	var b strings.Builder
	digest := func(what string, data []byte) {
		fmt.Fprintf(&b, "%s %x\n", what, sha256.Sum256(data))
	}
	run := func(d *Deployment, what string) {
		t.Helper()
		must(d.Run())
		fmt.Fprintf(&b, "ran %s at %d\n", what, int64(d.Net.Sim.Now()))
	}

	a := Deploy(g, WithBackend(backend))
	tr, err := a.InstallTraversal()
	must(err)
	snap, err := a.InstallSnapshot()
	must(err)
	split, err := a.InstallSnapshotSplit(4)
	must(err)
	any, err := a.InstallAnycast(map[uint32][]int{1: {g.NumNodes() - 1}})
	must(err)
	pc, err := a.InstallPriocast(map[uint32][]PrioMember{1: {{Node: 5, Prio: 2}, {Node: 150, Prio: 9}}})
	must(err)
	ttl, err := a.InstallBlackholeTTL()
	must(err)
	pl, err := a.InstallPktLoss([]int{3})
	must(err)
	cr, err := a.InstallCritical()
	must(err)
	cc, err := a.InstallChaincast([][]int{{4}, {180}})
	must(err)

	bc := Deploy(g, WithBackend(backend))
	ctr, err := bc.InstallBlackholeCounter()
	must(err)
	lm, err := bc.InstallLoadMap()
	must(err)

	mc := Deploy(g, WithBackend(backend))
	mon, err := mc.InstallMonitor(0, true)
	must(err)

	deps := []*Deployment{a, bc, mc}
	for _, d := range deps {
		for _, p := range d.Programs() {
			digest("program "+programKey(p), []byte(programJSON(t, p)))
			for _, is := range verify.CheckProgram(p, verify.Options{}) {
				fmt.Fprintln(&b, is)
			}
		}
	}

	tr.Trigger(0, 0)
	run(a, "traversal")
	snap.Trigger(0, 0)
	run(a, "snapshot")
	split.Trigger(0, 0)
	run(a, "snapsplit")
	any.Send(0, 1, nil, 0)
	run(a, "anycast")
	pc.Send(0, 1, nil, 0)
	run(a, "priocast")
	rep, err := ttl.Locate(0, 0)
	fmt.Fprintf(&b, "blackhole-ttl %+v %v\n", rep, err)
	pl.Monitor(0, 0)
	run(a, "pktloss")
	cr.Check(0, 0)
	run(a, "critical")
	cc.Send(0, nil, 0)
	run(a, "chaincast")
	ctr.Detect(0, 0, 0)
	run(bc, "blackhole-counter")
	lm.Monitor(0, 0)
	run(bc, "loadmap")
	evs, err := mon.Round()
	fmt.Fprintf(&b, "monitor %d events %v\n", len(evs), err)

	for i, d := range deps {
		s := d.Stats()
		fmt.Fprintf(&b, "deployment %d: flowmods=%d groupmods=%d installmsgs=%d outs=%d ins=%d outbytes=%d total-inband=%d\n",
			i, s.FlowMods, s.GroupMods, s.InstallMsgs, s.PacketOuts, s.PacketIns, s.OutBandBytes, d.Net.TotalInBand())
		msgs, bytes := d.Net.InBand()
		eths := make([]int, 0, len(msgs))
		for eth := range msgs {
			eths = append(eths, int(eth))
		}
		sort.Ints(eths)
		for _, eth := range eths {
			fmt.Fprintf(&b, "inband eth=%#04x msgs=%d bytes=%d\n", eth, msgs[uint16(eth)], bytes[uint16(eth)])
		}
		for sw := 0; sw < g.NumNodes(); sw++ {
			digest(fmt.Sprintf("switch %d/%d", i, sw), []byte(dump.Switch(d.Net.Switch(sw))))
		}
	}
	return b.String()
}

// TestParallelInstallMatchesSerial deploys every service on a topology
// of several fan-out blocks once on one processor and once on four:
// compile, check and install spread their switches over the cores, and
// nothing they produce — programs, findings, Table-2 counts, switches —
// may depend on it.
func TestParallelInstallMatchesSerial(t *testing.T) {
	if testing.Short() && raceEnabled {
		t.Skip("a deployment of every service is minutes under -race -short")
	}
	g := RandomConnected(200, 80, 3) // four fan-out blocks
	for _, backend := range []string{"of13", "stateful"} {
		t.Run(backend, func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			serial := deployEverywhereFingerprint(t, g, backend)
			runtime.GOMAXPROCS(4)
			parallel := deployEverywhereFingerprint(t, g, backend)
			if serial == parallel {
				return
			}
			s, p := strings.Split(serial, "\n"), strings.Split(parallel, "\n")
			for i := 0; i < len(s) && i < len(p); i++ {
				if s[i] != p[i] {
					t.Fatalf("GOMAXPROCS=4 diverges from GOMAXPROCS=1 at line %d:\n  1: %s\n  4: %s", i+1, s[i], p[i])
				}
			}
			t.Fatalf("GOMAXPROCS=4 output has %d lines, GOMAXPROCS=1 %d", len(p), len(s))
		})
	}
}
