package verify_test

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"

	"smartsouth"
	"smartsouth/internal/controller"
	"smartsouth/internal/core"
	"smartsouth/internal/network"
	"smartsouth/internal/openflow"
	"smartsouth/internal/topo"
	"smartsouth/internal/verify"
)

// viaSwitch is the reference CheckProgram is held to: materialize every
// switch program onto an empty model switch — the rules cloned, sorted and
// indexed as an install would — and run the live-switch verifier over it.
func viaSwitch(p *openflow.Program, opts verify.Options) []verify.Finding {
	if opts.TagBytes == 0 {
		opts.TagBytes = p.TagBytes
	}
	var all []verify.Finding
	for _, id := range p.SwitchIDs() {
		sp := p.At(id)
		sw := openflow.NewSwitch(id, sp.NumPorts)
		sp.Materialize(sw)
		all = append(all, verify.Switch(sw, opts)...)
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].Severity > all[j].Severity })
	return all
}

// ownerFree drops the owner fields (service, slot) a live switch cannot
// know, leaving what a view of the same rules must agree on.
func ownerFree(fs []verify.Finding) []verify.Finding {
	out := make([]verify.Finding, len(fs))
	for i, f := range fs {
		f.Service, f.Slot = "", 0
		out[i] = f
	}
	return out
}

// sameFindings reports a difference between two owner-free sequences.
func sameFindings(t *testing.T, what string, got, want []verify.Finding) {
	t.Helper()
	got, want = ownerFree(got), ownerFree(want)
	if slices.Equal(got, want) {
		return
	}
	t.Errorf("%s: %d findings, reference %d", what, len(got), len(want))
	for i := 0; i < len(got) || i < len(want); i++ {
		var g, w string
		if i < len(got) {
			g = got[i].String()
		}
		if i < len(want) {
			w = want[i].String()
		}
		if g != w {
			t.Errorf("  first difference at %d:\n   got:       %s\n   reference: %s", i, g, w)
			break
		}
	}
}

func checkParity(t *testing.T, p *openflow.Program, opts verify.Options) []verify.Finding {
	t.Helper()
	got := verify.CheckProgram(p, opts)
	sameFindings(t, fmt.Sprintf("program %q, options %+v: in place vs materialized", p.Service, opts), got, viaSwitch(p, opts))
	return got
}

// TestCheckProgramMatchesMaterializedSwitch: checking a program in place
// and checking the switch it materializes to must report the same issues,
// in the same order, for every service under both lowerings.
func TestCheckProgramMatchesMaterializedSwitch(t *testing.T) {
	graphs := map[string]*topo.Graph{
		"ring20":   topo.Ring(20),
		"random60": topo.RandomConnected(60, 40, 5),
	}
	for name, g := range graphs {
		for _, be := range core.Backends() {
			t.Run(name+"/"+be.Name(), func(t *testing.T) {
				c := controller.New(network.New(g, network.Options{}))
				b := core.WithBackend(be)
				must := func(service string, err error) {
					t.Helper()
					if err != nil {
						t.Fatalf("%s: %v", service, err)
					}
				}
				_, err := core.InstallTraversal(c, g, 0, b)
				must("traversal", err)
				_, err = core.InstallSnapshot(c, g, 1, b)
				must("snapshot", err)
				_, err = core.InstallAnycast(c, g, 2, map[uint32][]int{1: {3, 11}}, b)
				must("anycast", err)
				_, err = core.InstallPriocast(c, g, 3, map[uint32][]core.PrioMember{2: {{Node: 4, Prio: 5}, {Node: 9, Prio: 1}}}, b)
				must("priocast", err)
				_, err = core.InstallCritical(c, g, 4, b)
				must("critical", err)
				_, err = core.InstallBlackholeCounter(c, g, 5, b)
				must("blackhole-counter", err)
				_, err = core.InstallBlackholeTTL(c, g, 7, b)
				must("blackhole-ttl", err)
				_, err = core.InstallPktLoss(c, g, 8, nil, b)
				must("pktloss", err)
				_, err = core.InstallChaincast(c, g, 9, [][]int{{2}, {7}}, b)
				must("chaincast", err)
				_, err = core.InstallSnapshotSplit(c, g, 11, 8, b)
				must("snapsplit", err)
				_, err = core.InstallLoadMap(c, g, 12, b)
				must("loadmap", err)
				progs := c.Programs()
				if len(progs) != 11 {
					t.Fatalf("controller retains %d programs, want 11", len(progs))
				}
				for _, p := range progs {
					checkParity(t, p, verify.Options{SkipShadowing: true})
					if issues := checkParity(t, p, verify.Options{}); len(issues) == 0 && p.Service == "blackhole-ctr" {
						t.Error("the dispatcher override of blackhole-ctr went unreported: the comparison is vacuous")
					}
				}
			})
		}
	}
}

// TestComposedProgramsMatchLiveSwitches: phase 1 over the composition of
// every retained program must report what the live-switch check reports
// over the switches they were installed on — the composed view is the
// switch — for the five deploy-240 services on both lowerings, and again
// after one service is uninstalled and installed anew.
func TestComposedProgramsMatchLiveSwitches(t *testing.T) {
	g := topo.RandomConnected(60, 30, 7)
	for _, be := range core.Backends() {
		t.Run(be.Name(), func(t *testing.T) {
			d := smartsouth.Deploy(g, smartsouth.WithBackend(be.Name()))
			anyGroups := map[uint32][]int{1: {3, 17, 41}, 2: {8, 22, 55}}
			if _, err := d.InstallSnapshot(); err != nil {
				t.Fatal(err)
			}
			any, err := d.InstallAnycast(anyGroups)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := d.InstallPriocast(map[uint32][]smartsouth.PrioMember{1: {{Node: 4, Prio: 5}, {Node: 30, Prio: 1}}}); err != nil {
				t.Fatal(err)
			}
			if _, err := d.InstallCritical(); err != nil {
				t.Fatal(err)
			}
			if _, err := d.InstallBlackholeCounter(); err != nil {
				t.Fatal(err)
			}
			compare := func(when string) {
				t.Helper()
				composed := verify.CheckComposed(d.Programs(), verify.Options{})
				if len(composed) == 0 {
					t.Fatalf("%s: the composition reports nothing: the comparison is vacuous", when)
				}
				sameFindings(t, when+": composed programs vs live switches", composed, d.Verify())
			}
			compare("cold")
			d.Uninstall(any.Prog.Slot)
			if _, err := d.InstallAnycast(anyGroups); err != nil {
				t.Fatal(err)
			}
			compare("after reinstalling anycast")
		})
	}
}

// TestCheckProgramMatchesMaterializedSwitchOnBrokenPrograms runs the same
// comparison over programs built to trip each check, and makes sure each
// one does trip it.
func TestCheckProgramMatchesMaterializedSwitchOnBrokenPrograms(t *testing.T) {
	all := openflow.MatchAll()
	out := func(port int) []openflow.Action { return []openflow.Action{openflow.Output{Port: port}} }
	group := func(id uint32) []openflow.Action { return []openflow.Action{openflow.Group{ID: id}} }
	big := openflow.Field{Name: "big", Off: 30, Bits: 8} // ends at bit 38, past a 4-byte tag
	one := uint64(1)
	seven := uint64(7)

	for _, fx := range []struct {
		name     string
		tagBytes int
		build    func(p *openflow.Program)
		want     []string
	}{
		{name: "backward goto", build: func(p *openflow.Program) {
			p.AddFlow(0, 3, &openflow.FlowEntry{Priority: 1, Match: all, Goto: 1, Cookie: "bad"})
			p.AddFlow(0, 1, &openflow.FlowEntry{Priority: 1, Match: all, Goto: openflow.NoGoto, Cookie: "t1"})
		}, want: []string{"backward goto 1"}},
		{name: "missing group and empty goto target", build: func(p *openflow.Program) {
			p.AddFlow(0, 0, &openflow.FlowEntry{Priority: 1, Match: all, Goto: 9, Actions: group(42), Cookie: "dangling"})
		}, want: []string{"missing group 42", "goto empty table 9"}},
		{name: "chain loop", build: func(p *openflow.Program) {
			p.AddGroup(0, &openflow.GroupEntry{ID: 1, Type: openflow.GroupIndirect, Buckets: []openflow.Bucket{{Actions: group(2)}}})
			p.AddGroup(0, &openflow.GroupEntry{ID: 2, Type: openflow.GroupIndirect, Buckets: []openflow.Bucket{{Actions: group(1)}}})
			p.AddFlow(0, 0, &openflow.FlowEntry{Priority: 1, Match: all, Goto: openflow.NoGoto, Actions: group(2), Cookie: "entry"})
		}, want: []string{"group chaining loop through group 1"}},
		{name: "invalid port and watch port", build: func(p *openflow.Program) {
			p.AddFlow(0, 0, &openflow.FlowEntry{Priority: 1, Match: all, Goto: openflow.NoGoto, Actions: out(7), Cookie: "badport"})
			p.AddGroup(0, &openflow.GroupEntry{ID: 1, Type: openflow.GroupFF, Buckets: []openflow.Bucket{
				{WatchPort: 9, Actions: out(99)},
				{WatchPort: 1, Actions: group(5)},
			}})
			p.AddFlow(0, 0, &openflow.FlowEntry{Priority: 2, Match: openflow.MatchEth(5), Goto: openflow.NoGoto, Actions: group(1), Cookie: "viagroup"})
		}, want: []string{"output to invalid port 7", "watches invalid port 9", "outputs to invalid port 99",
			"bucket 1 references missing group 5", "no unconditional bucket"}},
		{name: "out-of-range tag field", tagBytes: 4, build: func(p *openflow.Program) {
			p.AddFlow(0, 0, &openflow.FlowEntry{Priority: 1, Match: all.WithField(big, 1), Goto: openflow.NoGoto,
				Actions: []openflow.Action{openflow.SetField{F: big, Value: 2}, openflow.Output{Port: 1}}, Cookie: "oob"})
			p.SetStateKey(0, 2, []openflow.Field{big})
			p.AddState(0, 2, &openflow.StateEntry{Priority: 1, AnyState: true, Match: all, Goto: openflow.NoGoto, Cookie: "keyed"})
		}, want: []string{"match field", "set-field", "state-table key field"}},
		{name: "dual-use table", build: func(p *openflow.Program) {
			p.AddFlow(0, 2, &openflow.FlowEntry{Priority: 1, Match: all, Goto: openflow.NoGoto, Cookie: "unreachable"})
			p.AddState(0, 2, &openflow.StateEntry{Priority: 1, AnyState: true, Match: all, Goto: openflow.NoGoto, Cookie: "claims"})
		}, want: []string{"holds both 1 flow entries and 1 state transitions"}},
		{name: "unmatched state write", build: func(p *openflow.Program) {
			p.AddState(0, 1, &openflow.StateEntry{Priority: 2, State: 0, Match: all, SetState: &one, Goto: openflow.NoGoto, Cookie: "to1"})
			p.AddState(0, 1, &openflow.StateEntry{Priority: 1, State: 1, Match: all, SetState: &seven, Goto: 1, Cookie: "to7"})
		}, want: []string{"writes state 7, which no transition of table 1 matches", "backward goto 1"}},
		{name: "equal priorities, duplicate group, shadowing", build: func(p *openflow.Program) {
			f := openflow.Field{Name: "x", Off: 0, Bits: 4}
			p.AddFlow(0, 0, &openflow.FlowEntry{Priority: 5, Match: openflow.MatchEth(5).WithField(f, 3), Goto: openflow.NoGoto, Actions: out(8), Cookie: "lo-first"})
			p.AddFlow(0, 0, &openflow.FlowEntry{Priority: 10, Match: openflow.MatchEth(5), Goto: openflow.NoGoto, Actions: group(1), Cookie: "hi"})
			p.AddFlow(0, 0, &openflow.FlowEntry{Priority: 5, Match: openflow.MatchEth(5).WithField(f, 4), Goto: openflow.NoGoto, Actions: out(9), Cookie: "lo-second"})
			p.AddGroup(0, &openflow.GroupEntry{ID: 1, Type: openflow.GroupIndirect, Buckets: []openflow.Bucket{{Actions: out(1)}}})
			p.AddGroup(0, &openflow.GroupEntry{ID: 1, Type: openflow.GroupIndirect}) // a re-sent ID replaces the first
		}, want: []string{"output to invalid port 8", "output to invalid port 9", "group 1 has no buckets", "overridden by broader"}},
	} {
		t.Run(fx.name, func(t *testing.T) {
			p := openflow.NewProgram("broken", 0)
			p.TagBytes = fx.tagBytes
			p.Ensure(0, 2)
			fx.build(p)
			issues := checkParity(t, p, verify.Options{})
			checkParity(t, p, verify.Options{SkipShadowing: true})
			for _, w := range fx.want {
				if !slices.ContainsFunc(issues, func(i verify.Finding) bool { return strings.Contains(i.Detail, w) }) {
					t.Errorf("no issue mentions %q in %v", w, issues)
				}
			}
		})
	}
}
