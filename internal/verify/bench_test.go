package verify_test

import (
	"testing"

	"smartsouth/internal/core"
	"smartsouth/internal/openflow"
	"smartsouth/internal/topo"
	"smartsouth/internal/verify"
)

// captureCP is a control plane that keeps the programs handed to it and
// installs nothing; no other ControlPlane method may be called.
type captureCP struct {
	core.ControlPlane
	progs []*openflow.Program
}

func (c *captureCP) InstallProgram(p *openflow.Program) { c.progs = append(c.progs, p) }

// BenchmarkCheckProgram measures the pre-install check deploys run (no
// shadowing analysis) on the 10k-switch ISP snapshot, a long tail of hubs,
// and on the FatTree(16) split snapshot, every switch at degree 16.
func BenchmarkCheckProgram(b *testing.B) {
	isp, err := topo.ISP(500, 20, 1)
	if err != nil {
		b.Fatal(err)
	}
	fattree, err := topo.FatTree(16)
	if err != nil {
		b.Fatal(err)
	}
	for _, arm := range []struct {
		name    string
		install func(c core.ControlPlane) error
	}{
		{"snapshot/isp", func(c core.ControlPlane) error {
			_, err := core.InstallSnapshot(c, isp, 0)
			return err
		}},
		{"snapsplit/fattree16", func(c core.ControlPlane) error {
			_, err := core.InstallSnapshotSplit(c, fattree, 0, 16)
			return err
		}},
	} {
		b.Run(arm.name, func(b *testing.B) {
			c := &captureCP{}
			if err := arm.install(c); err != nil {
				b.Fatal(err)
			}
			p := c.progs[0]
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if errs := verify.Errors(verify.CheckProgram(p, verify.Options{SkipShadowing: true})); len(errs) > 0 {
					b.Fatal(errs[0])
				}
			}
		})
	}
}
