package smartsouth

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"smartsouth/internal/core"
	"smartsouth/internal/openflow"
)

// renderProgram serializes one retained Program to a canonical multi-line
// form: every flow as switch/table/priority/cookie/goto/match/actions and
// every group as id/type/buckets (watch port + actions). Lines are sorted
// so entry-for-entry comparison is independent of compile emit order.
func renderProgram(p *Program) string {
	var lines []string
	for _, id := range p.SwitchIDs() {
		sp := p.At(id)
		for _, fr := range sp.Flows {
			var acts []string
			for _, a := range fr.Entry.Actions {
				acts = append(acts, a.String())
			}
			lines = append(lines, fmt.Sprintf(
				"flow sw%d t%d prio%d %q goto=%d match=%s actions=[%s]",
				id, fr.Table, fr.Entry.Priority, fr.Entry.Cookie,
				fr.Entry.Goto, fr.Entry.Match.String(), strings.Join(acts, ",")))
		}
		for _, ge := range sp.Groups {
			var bks []string
			for _, b := range ge.Buckets {
				var acts []string
				for _, a := range b.Actions {
					acts = append(acts, a.String())
				}
				bks = append(bks, fmt.Sprintf("{watch=%d [%s]}", b.WatchPort, strings.Join(acts, ",")))
			}
			lines = append(lines, fmt.Sprintf("group sw%d id=%d type=%s buckets=%s",
				id, ge.ID, ge.Type, strings.Join(bks, " ")))
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

func programKey(p *Program) string { return fmt.Sprintf("%s/%d", p.Service, p.Slot) }

// comparePrograms checks the two control planes retained the same set of
// programs with identical rule footprints.
func comparePrograms(t *testing.T, local, remote *Deployment) {
	t.Helper()
	lp, rp := local.Programs(), remote.Programs()
	if len(lp) != len(rp) {
		t.Fatalf("retained programs: local %d, remote %d", len(lp), len(rp))
	}
	remoteByKey := make(map[string]*Program, len(rp))
	for _, p := range rp {
		if prev := remoteByKey[programKey(p)]; prev != nil {
			t.Fatalf("remote retains duplicate program %s", programKey(p))
		}
		remoteByKey[programKey(p)] = p
	}
	for _, l := range lp {
		r := remoteByKey[programKey(l)]
		if r == nil {
			t.Errorf("program %s retained locally but not remotely", programKey(l))
			continue
		}
		if l.Slots != r.Slots || l.TagBytes != r.TagBytes {
			t.Errorf("%s shape: slots %d/%d tagbytes %d/%d",
				programKey(l), l.Slots, r.Slots, l.TagBytes, r.TagBytes)
		}
		lr, rr := renderProgram(l), renderProgram(r)
		if lr != rr {
			t.Errorf("program %s differs local vs remote:\n--- local ---\n%s\n--- remote ---\n%s",
				programKey(l), lr, rr)
		}
	}
}

// installCohortA installs every service that can share one deployment
// (distinct EtherTypes). Returns the snapshot handle for runtime parity.
func installCohortA(t *testing.T, d *Deployment) *Snapshot {
	t.Helper()
	if _, err := d.InstallTraversal(); err != nil {
		t.Fatal(err)
	}
	snap, err := d.InstallSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.InstallSnapshotSplit(8); err != nil {
		t.Fatal(err)
	}
	if _, err := d.InstallAnycast(map[uint32][]int{1: {2, 6}}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.InstallPriocast(map[uint32][]PrioMember{
		1: {{Node: 2, Prio: 3}, {Node: 8, Prio: 9}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.InstallBlackholeTTL(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.InstallPktLoss(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := d.InstallCritical(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.InstallChaincast([][]int{{4}, {6}}); err != nil {
		t.Fatal(err)
	}
	return snap
}

// TestLocalRemoteProgramParity installs the full service suite through
// both control planes — direct calls and binary OpenFlow 1.3 over TCP —
// and demands the retained Programs agree entry-for-entry, then runs one
// snapshot sweep on each plane and compares the observable outcome.
func TestLocalRemoteProgramParity(t *testing.T) {
	g := Grid(3, 3)
	local := Deploy(g, WithBackend("of13"))
	remote, err := DeployRemote(g, WithBackend("of13"))
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()

	lSnap := installCohortA(t, local)
	rSnap := installCohortA(t, remote)
	comparePrograms(t, local, remote)

	// Runtime parity: one sweep from the same root must produce the same
	// topology report and the same per-service in-band message count.
	lSnap.Trigger(0, 0)
	if err := local.Run(); err != nil {
		t.Fatal(err)
	}
	rSnap.Trigger(0, 0)
	if err := remote.Run(); err != nil {
		t.Fatal(err)
	}
	lRes, err := lSnap.Collect()
	if err != nil {
		t.Fatal(err)
	}
	rRes, err := rSnap.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(lRes.Nodes) != len(rRes.Nodes) || len(lRes.Edges) != len(rRes.Edges) {
		t.Fatalf("snapshot results differ: local %d nodes %d edges, remote %d nodes %d edges",
			len(lRes.Nodes), len(lRes.Edges), len(rRes.Nodes), len(rRes.Edges))
	}
	li := local.Net.InBandCount(core.EthSnapshot)
	ri := remote.Net.InBandCount(core.EthSnapshot)
	if li != ri || li != 4*g.NumEdges()-2*g.NumNodes()+2 {
		t.Fatalf("in-band parity: local %d, remote %d, want %d", li, ri,
			4*g.NumEdges()-2*g.NumNodes()+2)
	}
	// The whole per-service view agrees, field for field: install
	// columns, runtime columns, activity clocks and group hits. RuleHits
	// is the one field left out: the wire carries a rule's cookie as its
	// 64-bit hash, so the remote switches hold "wire-…" cookies that the
	// retained programs' cookie lookup cannot find.
	lm, rm := local.MetricsSnapshot(), remote.MetricsSnapshot()
	for i := range lm {
		lm[i].RuleHits = nil
	}
	for i := range rm {
		rm[i].RuleHits = nil
	}
	if !reflect.DeepEqual(lm, rm) {
		t.Fatalf("metrics parity:\nlocal  %+v\nremote %+v", lm, rm)
	}
}

// TestLocalRemoteProgramParityCohabitants covers the services excluded
// from cohort A because they claim EtherTypes used there: the
// smart-counter blackhole detector (EthBlackhole), load inference
// (EthData, conflicting with pktloss) and the two-slot monitor.
func TestLocalRemoteProgramParityCohabitants(t *testing.T) {
	g := Grid(3, 3)
	install := func(d *Deployment) {
		t.Helper()
		if _, err := d.InstallBlackholeCounter(); err != nil {
			t.Fatal(err)
		}
		if _, err := d.InstallLoadMap(); err != nil {
			t.Fatal(err)
		}
	}
	local := Deploy(g, WithBackend("of13"))
	remote, err := DeployRemote(g, WithBackend("of13"))
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	install(local)
	install(remote)
	comparePrograms(t, local, remote)

	lMon := Deploy(g, WithBackend("of13"))
	rMon, err := DeployRemote(g, WithBackend("of13"))
	if err != nil {
		t.Fatal(err)
	}
	defer rMon.Close()
	if _, err := lMon.InstallMonitor(0, true); err != nil {
		t.Fatal(err)
	}
	if _, err := rMon.InstallMonitor(0, true); err != nil {
		t.Fatal(err)
	}
	comparePrograms(t, lMon, rMon)
	for _, p := range lMon.Programs() {
		if p.Service == "" {
			t.Fatal("unlabeled program retained")
		}
	}
}

// TestRenderProgramDiscriminates guards the comparison itself: a rendered
// program must change when an entry changes, or parity tests prove
// nothing.
func TestRenderProgramDiscriminates(t *testing.T) {
	mk := func(prio int) *Program {
		p := openflow.NewProgram("x", 0)
		p.Ensure(0, 2)
		p.AddFlow(0, 1, &openflow.FlowEntry{
			Priority: prio, Match: openflow.MatchEth(0x8802),
			Actions: []openflow.Action{openflow.Output{Port: 1}},
			Goto:    openflow.NoGoto, Cookie: "k",
		})
		p.AddGroup(0, &openflow.GroupEntry{ID: 5, Type: openflow.GroupFF,
			Buckets: []openflow.Bucket{{WatchPort: 1,
				Actions: []openflow.Action{openflow.Output{Port: 1}}}}})
		return p
	}
	if renderProgram(mk(100)) == renderProgram(mk(101)) {
		t.Fatal("renderProgram ignores priority changes")
	}
	if !strings.Contains(renderProgram(mk(100)), "group sw0 id=5 type=ff") {
		t.Fatalf("render: %s", renderProgram(mk(100)))
	}
}
