package dump

import (
	"strings"
	"testing"

	"smartsouth/internal/controller"
	"smartsouth/internal/core"
	"smartsouth/internal/network"
	"smartsouth/internal/openflow"
	"smartsouth/internal/topo"
)

func TestSwitchDumpContainsEverything(t *testing.T) {
	sw := openflow.NewSwitch(3, 2)
	f := openflow.Field{Name: "x", Off: 0, Bits: 4}
	sw.AddFlow(0, &openflow.FlowEntry{
		Priority: 7, Match: openflow.MatchEth(0x8801).WithField(f, 2),
		Actions: []openflow.Action{openflow.SetField{F: f, Value: 1}, openflow.Output{Port: 1}},
		Goto:    4, Cookie: "my-rule",
	})
	sw.AddGroup(&openflow.GroupEntry{ID: 9, Type: openflow.GroupFF, Buckets: []openflow.Bucket{
		{WatchPort: 2, Actions: []openflow.Action{openflow.Output{Port: 2}}},
		{WatchPort: openflow.WatchNone, Actions: []openflow.Action{openflow.Output{Port: openflow.PortController}}},
	}})

	out := Switch(sw)
	for _, want := range []string{
		"switch 3", "table 0", "my-rule", "goto:4", "x[0:4]=2",
		"set(x[0:4]:=1)", "output:1", "group 9 type=ff",
		"watch port 2", "watch always", "output:controller",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("dump missing %q:\n%s", want, out)
		}
	}
}

func TestDumpOfRealService(t *testing.T) {
	g := topo.Line(3)
	net := network.New(g, network.Options{})
	c := controller.New(net)
	if _, err := core.InstallSnapshot(c, g, 0); err != nil {
		t.Fatal(err)
	}
	out := Switch(net.Switch(1))
	if !strings.Contains(out, "svc8802/n1/start") || !strings.Contains(out, "push(") {
		t.Errorf("service dump incomplete:\n%.400s", out)
	}
}

func TestEmptySwitchDump(t *testing.T) {
	sw := openflow.NewSwitch(0, 1)
	out := Switch(sw)
	if !strings.Contains(out, "0 flows, 0 groups") {
		t.Errorf("empty dump: %s", out)
	}
}
