package verify

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"smartsouth/internal/openflow"
)

// reach computes symbolic reachability network-wide. Seeds model every
// way a packet enters the fabric: for each switch with dispatch rules,
// one seed per dispatched EtherType injected as the controller would
// (zeroed tag, TTL 255, in-port = controller). EtherTypes listed in
// Options.HostEthTypes are additionally seeded with an unconstrained
// (Top) tag, modelling host-originated traffic. The walk follows
// emissions across topology links; a revisit of a (switch, in-port,
// state) node on the current path is a forwarding loop, and a state
// with no matching rule (or dropped mid-service without having been
// emitted) is a blackhole.
func (a *analyzer) reach() {
	host := make(map[uint16]bool, len(a.opts.HostEthTypes))
	for _, et := range a.opts.HostEthTypes {
		host[et] = true
	}
	if a.opts.ReportDeadRules {
		for _, id := range a.ids {
			for i := range a.views[id].tables {
				t := &a.views[id].tables[i]
				t.flowHit, t.stateHit = make([]bool, len(t.flows)), make([]bool, len(t.states))
			}
		}
	}
	for _, id := range a.ids {
		for _, et := range dispatchEthTypes(a.views[id]) {
			a.explore(id, newSymPacket(et, openflow.PortController, false), nil)
			if host[et] {
				a.explore(id, newSymPacket(et, openflow.PortController, true), nil)
			}
		}
	}
}

// dispatchEthTypes collects the EtherTypes a composed switch
// demultiplexes in table 0, in rule order.
func dispatchEthTypes(c *config) []uint16 {
	t := c.table(0)
	if t == nil {
		return nil
	}
	var out []uint16
	for _, e := range t.flows {
		if e.Match.EthType == openflow.AnyEthType {
			continue
		}
		if et := uint16(e.Match.EthType); !slices.Contains(out, et) {
			out = append(out, et)
		}
	}
	return out
}

const (
	colorGray  int8 = 1
	colorBlack int8 = 2
)

// explore walks the transition graph depth-first from one (switch,
// state) node. A node is a full configuration: the packet class plus the
// state store of every state table the walk has written — for a stateful
// backend the discriminating DFS state lives in the switches, and keying
// on the packet alone would report every bounce transition as a loop.
// The pipeline is deterministic in the configuration, so finished nodes
// are memoized globally; nodes on the current path are marked gray, and
// reaching a gray node means the fabric forwards this packet class
// forever.
func (a *analyzer) explore(sw int, σ *symPacket, st stateStore) {
	key := "s" + strconv.Itoa(sw) + "|" + σ.key() + st.digest()
	switch a.color[key] {
	case colorGray:
		a.reportLoop(sw, σ, key)
		return
	case colorBlack:
		return
	}
	a.states++
	if a.states > a.opts.maxStates() {
		if !a.budgetHit {
			a.budgetHit = true
			a.add(Finding{
				Kind: KindBudget, Severity: Warn, Switch: -1, Table: -1, Slot: -1,
				Detail: fmt.Sprintf("state budget %d exhausted: reachability verdicts are incomplete", a.opts.maxStates()),
			})
		}
		a.color[key] = colorBlack
		return
	}
	a.color[key] = colorGray
	a.stack = append(a.stack, hop{key: key, sw: sw, in: σ.inPort})

	for _, end := range a.pipelineAt(sw, σ, st) {
		a.classifyEnd(sw, σ, end)
		for _, em := range end.emits {
			switch {
			case em.port == openflow.PortController, em.port == openflow.PortSelf:
				// Delivered out of the fabric: controller or local host.
			case em.port >= 1:
				v, vport, ok := a.g.Neighbor(sw, em.port)
				if !ok {
					svc, slot := a.owner(σ.eth)
					a.add(Finding{
						Kind: KindBlackhole, Severity: Err,
						Service: svc, Slot: slot, Switch: sw, Table: -1,
						Detail: fmt.Sprintf("packet (%s) emitted on port %d, which has no link", em.pkt, em.port),
					})
					continue
				}
				// Each emission continues under the path's end-of-pipeline
				// store: the walk models one packet in flight at a time
				// (concurrent copies interleaving state commits are outside
				// the model; see docs/ANALYSIS.md).
				np := em.pkt.clone()
				np.inPort = vport
				a.explore(v, np, end.store)
			}
		}
	}

	a.stack = a.stack[:len(a.stack)-1]
	a.color[key] = colorBlack
}

// classifyEnd turns one pipeline outcome into blackhole findings.
func (a *analyzer) classifyEnd(sw int, σ *symPacket, end pathEnd) {
	svc, slot := a.owner(σ.eth)
	switch {
	case end.missTable == 0 && !end.matched:
		// No rule at all for this packet. For a forwarded packet that is
		// a silent drop mid-flight; a controller-injected seed always
		// matches its own dispatch rule, so in-port filters are the only
		// way to get here from a seed.
		if σ.inPort == openflow.PortController {
			return
		}
		a.add(Finding{
			Kind: KindBlackhole, Severity: Err,
			Service: svc, Slot: slot, Switch: sw, Table: 0,
			Detail: fmt.Sprintf("forwarded packet (%s) matches no rule: silently dropped", σ),
		})
	case end.missTable > 0 && len(end.emits) == 0 && !end.dropped:
		// Entered the service pipeline, then fell off a goto chain
		// without emitting anything or explicitly dropping.
		a.add(Finding{
			Kind: KindBlackhole, Severity: Err,
			Service: svc, Slot: slot, Switch: sw, Table: end.missTable,
			Detail: fmt.Sprintf("packet (%s) dropped mid-service: no matching rule in table %d and nothing emitted", σ, end.missTable),
		})
	}
	// A miss after an emission is the normal goto-to-finish pattern; an
	// explicit drop is intended behaviour. Neither is reported.
}

// reportLoop emits a loop finding describing the cycle from the current
// walk stack.
func (a *analyzer) reportLoop(sw int, σ *symPacket, key string) {
	svc, slot := a.owner(σ.eth)
	start := 0
	for i, h := range a.stack {
		if h.key == key {
			start = i
			break
		}
	}
	var cyc []string
	for _, h := range a.stack[start:] {
		cyc = append(cyc, fmt.Sprintf("sw%d[in%d]", h.sw, h.in))
	}
	cyc = append(cyc, fmt.Sprintf("sw%d[in%d]", sw, σ.inPort))
	a.add(Finding{
		Kind: KindLoop, Severity: Err,
		Service: svc, Slot: slot, Switch: sw, Table: -1,
		Detail: fmt.Sprintf("forwarding loop: %s revisits state (%s)", strings.Join(cyc, " -> "), σ),
	})
}

// deadRules reports rules no reachable packet class hit, network-wide —
// flow rules and state-table transitions alike.
func (a *analyzer) deadRules() {
	for _, id := range a.ids {
		c := a.views[id]
		dead := func(p *openflow.Program, table int, cookie, detail string) {
			a.add(Finding{Kind: KindDeadRule, Severity: Info, Service: p.Service, Slot: p.Slot,
				Switch: id, Table: table, Cookie: cookie, Detail: detail})
		}
		for i := range c.tables {
			t := &c.tables[i]
			for j, e := range t.flows {
				if !t.flowHit[j] {
					dead(c.flowOwner(t, j), t.id, e.Cookie, "no symbolically reachable packet hits this rule (expected for fault-recovery paths)")
				}
			}
		}
		for i := range c.tables {
			t := &c.tables[i]
			for j, e := range t.states {
				if !t.stateHit[j] {
					dead(c.stateOwner(t, j), t.id, e.Cookie, "no symbolically reachable packet fires this transition (expected for fault-recovery paths)")
				}
			}
		}
	}
}
