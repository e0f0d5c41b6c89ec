package core

import (
	"fmt"

	"smartsouth/internal/openflow"
	"smartsouth/internal/topo"
	"smartsouth/internal/verify"
)

// Program is the declarative compile artifact every service produces; see
// openflow.Program. The alias keeps service code and callers in one
// vocabulary without forcing a dependency direction.
type Program = openflow.Program

// Service is an installed service handle as the deployment layer sees it:
// the program its install retained (name, slot span), the layout of the
// DFS state its packets carry (nil if none), and the EtherTypes its rules
// match, in attribution order.
type Service interface {
	Identity() (prog *Program, tags *Layout, eths []uint16)
}

// newProgram starts a service program covering every node of the graph
// (port counts recorded for the static check) with the layout's tag
// budget, so the pre-install check can bound tag fields.
func newProgram(service string, slot int, g *topo.Graph, l *Layout) *Program {
	p := openflow.NewProgram(service, slot)
	p.TagBytes = l.TagBytes()
	for i := 0; i < g.NumNodes(); i++ {
		p.Ensure(i, g.Degree(i))
	}
	return p
}

// ProgramGater is an optional ControlPlane extension: a control plane
// (or a decorator around one) that wants to veto program installations
// implements it, and installProgram consults it after the per-program
// static check. The deployment layer uses this to run the network-wide
// symbolic analysis (verify.CheckDeployment) as an opt-in install gate;
// core itself runs only the per-program check.
type ProgramGater interface {
	// GateProgram returns a non-nil error to reject the program before
	// any of its rules reach a switch.
	GateProgram(p *Program) error
}

// addT0Rule installs a service rule in a template's entry table. Under
// OF13 the entry table is an ordinary flow table; under the stateful
// backend it is the node's state table, where a flow entry would be
// unreachable — the rule becomes an equivalent any-state transition (same
// priority, match, actions and goto; no state change).
func addT0Rule(p *Program, be Backend, sw, table int, e *openflow.FlowEntry) {
	if be != nil && be.Stateful() {
		p.AddState(sw, table, &openflow.StateEntry{
			Priority: e.Priority, AnyState: true,
			Match: e.Match, Actions: e.Actions, Goto: e.Goto, Cookie: e.Cookie,
		})
		return
	}
	p.AddFlow(sw, table, e)
}

// resetStateful clears the DFS state tables of a stateful-backed service
// before a re-trigger: unlike the OF13 lowering, whose traversal position
// lives in the packet and vanishes with it, the stateful lowering leaves
// every non-root node in its final (par, par) state after a run. The
// reset is a no-op (and costs no messages) while the tables are still
// empty, so a service's first trigger is unaffected.
func resetStateful(c ControlPlane, be Backend, p *Program) {
	if be == nil || !be.Stateful() || p == nil {
		return
	}
	if ts := p.StateTables(); len(ts) > 0 {
		c.ResetState(ts...)
	}
}

// installProgram statically checks a compiled program and, only if it is
// free of hard errors, hands it to the control plane. This is the single
// choke point between compilation and live switches: no service rule
// reaches a switch without passing verification first. Shadowing analysis
// is skipped here — it is O(rules²) and only ever yields warnings; the
// deployment-level Verify still runs it on demand.
//
// Transient programs (modify-style re-sends of state an installed
// program owns) skip the gate: they are not new deployments, and the
// gate's composition model already accounts for their owner.
func installProgram(c ControlPlane, p *Program) error {
	issues := verify.Errors(verify.CheckProgram(p, verify.Options{SkipShadowing: true}))
	if len(issues) > 0 {
		return fmt.Errorf("core: program %q rejected by pre-install check: %s (%d issues)",
			p.Service, issues[0], len(issues))
	}
	if g, ok := c.(ProgramGater); ok && !p.Transient {
		if err := g.GateProgram(p); err != nil {
			return fmt.Errorf("core: program %q rejected by deployment gate: %w", p.Service, err)
		}
	}
	c.InstallProgram(p)
	return nil
}
