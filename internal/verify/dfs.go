package verify

import (
	"fmt"

	"smartsouth/internal/openflow"
	"smartsouth/internal/topo"
)

// dirEdge is one direction of a topology edge, identified by the
// emitting switch and its port.
type dirEdge struct {
	sw, port int
}

// ProveDFS statically proves the paper's traversal invariant for a
// compiled DFS-template program on g: starting from every switch the
// program covers, the trigger packet crosses every live edge in both
// directions the same number of times — once per direction for tree
// edges (down, then up), twice for back edges (probe, then bounce, from
// each side) — never more, never less, and finally returns to the
// controller at its root. This is the paper's 4|E| message bound made
// exact. The proof abstract-interprets the compiled par/cur tag
// transitions with a concrete zero-tag trigger per root — exactly the
// state a controller injection produces — so the walk is deterministic
// and the edge-crossing counts are exact.
//
// An empty result means the invariant holds for every root. Forks in
// the abstract walk (a round-robin group, or a state matched by no
// single covering rule) make the walk nondeterministic; those return a
// Warn "cannot prove" finding rather than a spurious violation.
//
// ProveDFS applies to full-traversal services (the traversal template
// and snapshot); services that terminate early by design (anycast,
// critical-node) do not satisfy the invariant and should not be passed
// here.
func ProveDFS(p *openflow.Program, g *topo.Graph, opts Options) []Finding {
	a := newAnalyzer([]*openflow.Program{p}, g, opts)
	a.compose(false)
	var findings []Finding
	for _, root := range p.SwitchIDs() {
		findings = append(findings, a.proveRoot(p, root)...)
	}
	sortFindings(findings)
	return findings
}

// proveRoot walks the deterministic trigger transition system from one
// root and checks the crossing counts and the final controller return.
func (a *analyzer) proveRoot(p *openflow.Program, root int) []Finding {
	var findings []Finding
	fail := func(sev Severity, sw int, format string, args ...any) {
		findings = append(findings, Finding{
			Kind: KindDFS, Severity: sev,
			Service: p.Service, Slot: p.Slot, Switch: sw, Table: -1,
			Detail: fmt.Sprintf("root %d: %s", root, fmt.Sprintf(format, args...)),
		})
	}

	eths := dispatchEthTypes(a.views[root])
	if len(eths) == 0 {
		fail(Err, root, "no dispatch rule to inject the trigger into")
		return findings
	}
	eth := eths[0]

	type frame struct {
		sw    int
		pkt   *symPacket
		store stateStore
	}
	crossed := make(map[dirEdge]int)
	deliveredAtRoot := 0
	queue := []frame{{sw: root, pkt: newSymPacket(eth, openflow.PortController, false)}}
	visited := make(map[string]bool)
	steps := 0

	for len(queue) > 0 {
		steps++
		if steps > a.opts.maxStates() {
			fail(Warn, -1, "cannot prove: walk exceeded %d steps (non-terminating encoding?)", a.opts.maxStates())
			return findings
		}
		fr := queue[0]
		queue = queue[1:]
		// The per-configuration transition is deterministic, so revisiting
		// a (switch, packet state, store) node means the walk is periodic:
		// the trigger loops and every edge on the cycle is crossed
		// infinitely often. The store is part of the node — the stateful
		// backend keeps the DFS state in the switches, and a bounce revisits
		// the same (switch, packet) under a different store by design.
		vkey := fmt.Sprintf("s%d|%s%s", fr.sw, fr.pkt.key(), fr.store.digest())
		if visited[vkey] {
			fail(Err, fr.sw, "trigger re-enters state (%s) at sw%d: traversal loops instead of terminating", fr.pkt, fr.sw)
			return findings
		}
		visited[vkey] = true
		ends := a.pipelineAt(fr.sw, fr.pkt, fr.store)
		if len(ends) != 1 {
			fail(Warn, fr.sw, "cannot prove: pipeline forks into %d paths at sw%d (state %s)", len(ends), fr.sw, fr.pkt)
			return findings
		}
		end := ends[0]
		if end.missTable == 0 && !end.matched {
			fail(Err, fr.sw, "trigger (%s) matches no rule at sw%d", fr.pkt, fr.sw)
			continue
		}
		if end.missTable > 0 && len(end.emits) == 0 && !end.dropped {
			fail(Err, fr.sw, "trigger (%s) dropped mid-service at sw%d table %d", fr.pkt, fr.sw, end.missTable)
			continue
		}
		for _, em := range end.emits {
			switch {
			case em.port == openflow.PortController:
				if fr.sw == root {
					deliveredAtRoot++
				}
			case em.port == openflow.PortSelf:
				// Local delivery; not part of the traversal.
			case em.port >= 1:
				v, vport, ok := a.g.Neighbor(fr.sw, em.port)
				if !ok {
					fail(Err, fr.sw, "trigger emitted on port %d of sw%d, which has no link", em.port, fr.sw)
					continue
				}
				crossed[dirEdge{sw: fr.sw, port: em.port}]++
				np := em.pkt.clone()
				np.inPort = vport
				queue = append(queue, frame{sw: v, pkt: np, store: end.store})
			}
		}
	}

	for _, e := range a.g.Edges() {
		uv := crossed[dirEdge{sw: e.U, port: e.PU}]
		vu := crossed[dirEdge{sw: e.V, port: e.PV}]
		switch {
		case uv == 0 && vu == 0:
			fail(Err, e.U, "edge %d--%d never crossed: the traversal does not discover it", e.U, e.V)
		case uv != vu:
			fail(Err, e.U, "edge %d--%d crossed asymmetrically: %d times %d->%d but %d times %d->%d", e.U, e.V, uv, e.U, e.V, vu, e.V, e.U)
		case uv > 2:
			fail(Err, e.U, "edge %d--%d crossed %d times per direction (a DFS needs at most 2: probe and bounce)", e.U, e.V, uv)
		}
	}
	if deliveredAtRoot == 0 {
		fail(Err, root, "trigger never returned to the controller at the root")
	}
	return findings
}
