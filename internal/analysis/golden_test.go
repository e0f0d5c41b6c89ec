package analysis_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"smartsouth/internal/controller"
	"smartsouth/internal/core"
	"smartsouth/internal/network"
	"smartsouth/internal/topo"
	"smartsouth/internal/verify"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/verify_findings.golden")

const findingsGolden = "../../testdata/verify_findings.golden"

// elevenServices installs the eleven services the program-vs-switch
// parity test compares, under one backend, and returns the network they
// were installed on.
func elevenServices(t *testing.T, g *topo.Graph, be core.Backend) *network.Network {
	t.Helper()
	net := network.New(g, network.Options{})
	c := controller.New(net)
	b := core.WithBackend(be)
	for _, install := range []func() error{
		func() error { _, err := core.InstallTraversal(c, g, 0, b); return err },
		func() error { _, err := core.InstallSnapshot(c, g, 1, b); return err },
		func() error { _, err := core.InstallAnycast(c, g, 2, map[uint32][]int{1: {3, 11}}, b); return err },
		func() error {
			_, err := core.InstallPriocast(c, g, 3, map[uint32][]core.PrioMember{2: {{Node: 4, Prio: 5}, {Node: 9, Prio: 1}}}, b)
			return err
		},
		func() error { _, err := core.InstallCritical(c, g, 4, b); return err },
		func() error { _, err := core.InstallBlackholeCounter(c, g, 5, b); return err },
		func() error { _, err := core.InstallBlackholeTTL(c, g, 7, b); return err },
		func() error { _, err := core.InstallPktLoss(c, g, 8, nil, b); return err },
		func() error { _, err := core.InstallChaincast(c, g, 9, [][]int{{2}, {7}}, b); return err },
		func() error { _, err := core.InstallSnapshotSplit(c, g, 11, 8, b); return err },
		func() error { _, err := core.InstallLoadMap(c, g, 12, b); return err },
	} {
		if err := install(); err != nil {
			t.Fatal(err)
		}
	}
	return net
}

// TestFindingsGolden pins what the checkers report, byte for byte:
// verify.Switch over every live switch of the eleven-service Ring(20)
// deployment, and CheckDeployment (dead rules included) over the four
// paper services on Ring(8) and over every adversarial fixture. Run with
// -update to rewrite testdata/verify_findings.golden.
func TestFindingsGolden(t *testing.T) {
	var b bytes.Buffer
	for _, be := range core.Backends() {
		fmt.Fprintf(&b, "# verify.Switch: eleven services on Ring(20), %s\n", be.Name())
		net := elevenServices(t, topo.Ring(20), be)
		for i := 0; i < net.NumSwitches(); i++ {
			for _, is := range verify.Switch(net.Switch(i), verify.Options{}) {
				fmt.Fprintf(&b, "%s\tsw%d\tt%d\t%s\t%s\n", is.Severity, is.Switch, is.Table, is.Cookie, is.Detail)
			}
		}
	}
	lines := func(header string, fs []verify.Finding) {
		fmt.Fprintf(&b, "# %s\n", header)
		for _, f := range fs {
			raw, err := json.Marshal(f)
			if err != nil {
				t.Fatal(err)
			}
			b.Write(raw)
			b.WriteByte('\n')
		}
	}
	dead := paperOptions()
	dead.ReportDeadRules = true
	g := topo.Ring(8)
	lines("CheckDeployment: paper services on Ring(8), of13", verify.CheckDeployment(paperDeployment(t, g, core.OF13), g, dead))
	lines("CheckDeployment: paper services on Ring(8), stateful", verify.CheckDeployment(paperDeployment(t, g, core.Stateful), g, dead))
	for _, fx := range fixtures() {
		fx.opts.ReportDeadRules = true
		lines("CheckDeployment: fixture "+fx.name, fx.check())
	}

	if *updateGolden {
		if err := os.WriteFile(findingsGolden, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(findingsGolden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if bytes.Equal(b.Bytes(), want) {
		return
	}
	gl, wl := strings.Split(b.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("verify_findings.golden diverges at line %d:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("verify_findings.golden: %d lines, golden %d", len(gl), len(wl))
}
