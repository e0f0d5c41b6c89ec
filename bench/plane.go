package main

import (
	"smartsouth/internal/core"
	"smartsouth/internal/openflow"
)

// timedPlane decorates a control plane from outside the program: assigned to
// the public Deployment.CP field, it puts a span around every InstallProgram
// and counts the calls, which is how a traced run separates what a service
// installer spends compiling and verifying from what the control plane
// spends installing. Every other method is forwarded by the embedded
// interface.
type timedPlane struct {
	core.ControlPlane
	tr    *tracer
	calls int
}

var _ core.ControlPlane = (*timedPlane)(nil)

func (p *timedPlane) InstallProgram(prog *openflow.Program) {
	id := p.tr.begin("controlplane.InstallProgram")
	p.ControlPlane.InstallProgram(prog)
	p.tr.end(id)
	p.calls++
}
