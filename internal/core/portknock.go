package core

import (
	"fmt"

	"smartsouth/internal/network"
	"smartsouth/internal/openflow"
	"smartsouth/internal/topo"
)

// EthKnock carries knock packets; EthGuarded carries traffic to the
// protected service.
const (
	EthKnock   = 0x880C
	EthGuarded = 0x880D
)

// MaxKnockCode bounds knock codes (1..MaxKnockCode); the code field is
// sized for it.
const MaxKnockCode = 15

// PortKnock guards a service behind a secret knock sequence — the
// canonical keyed-state application of the stateful-SDN line of work, and
// the sharpest illustration of the paper's Table-2 contrast outside the
// traversal services:
//
// Under the stateful backend the guard switch holds a state table keyed by
// client id. Each correct knock advances the client's state machine one
// step at wire speed; a wrong knock resets it; once the full sequence has
// been seen the client's guarded traffic is delivered — all with zero
// controller messages.
//
// Under OF13 the switch has nowhere to keep per-client progress, so every
// knock is punted to the controller (one packet-in each), which tracks the
// sequence in Process and installs a per-client allow rule (one flow-mod)
// when it completes. Same service definition, same observable behaviour,
// but the control loop runs through the controller.
type PortKnock struct {
	G     *topo.Graph
	L     *Layout
	Guard int
	Seq   []uint32
	Prog  *Program

	FClient openflow.Field
	FCode   openflow.Field

	t0       int
	progress map[uint32]int // of13: per-client knock progress
	cursor   int            // of13: packet-ins consumed by Process
	ctl      ControlPlane
	be       Backend
}

// InstallPortKnock compiles and installs the knock guard at node guard
// with the given secret sequence.
func InstallPortKnock(c ControlPlane, g *topo.Graph, slot int, guard int, seq []uint32, opts ...InstallOption) (*PortKnock, error) {
	if guard < 0 || guard >= g.NumNodes() {
		return nil, fmt.Errorf("core: guard node %d out of range", guard)
	}
	if len(seq) == 0 {
		return nil, fmt.Errorf("core: empty knock sequence")
	}
	for _, code := range seq {
		if code < 1 || code > MaxKnockCode {
			return nil, fmt.Errorf("core: knock code %d outside 1..%d", code, MaxKnockCode)
		}
	}

	cfg := resolveInstall(opts)
	// Port knocking never traverses, so it skips the DFS layout entirely:
	// the packet carries only the client id and the knock code under both
	// backends. The backend difference is all in rules and messages.
	l := &Layout{G: g}
	pk := &PortKnock{
		G: g, L: l, Guard: guard, Seq: seq, ctl: c, be: cfg.Backend,
		FClient:  l.Alloc("client", 8),
		FCode:    l.Alloc("code", openflow.BitsFor(MaxKnockCode)),
		progress: make(map[uint32]int),
	}
	t0, _, _ := Slot(slot)
	pk.t0 = t0

	p := newProgram("portknock", slot, g, l)

	ethKnock := openflow.MatchEth(EthKnock)
	ethGuarded := openflow.MatchEth(EthGuarded)

	// Both traffic classes ride destination forwarding toward the guard.
	next := topo.BFSPaths(g, guard)
	for node, port := range next {
		for _, m := range []struct {
			match openflow.Match
			tag   string
		}{{ethKnock, "knock"}, {ethGuarded, "guarded"}} {
			p.AddFlow(node, 0, &openflow.FlowEntry{
				Priority: 100, Match: m.match,
				Actions: []openflow.Action{openflow.Output{Port: port}},
				Goto:    openflow.NoGoto,
				Cookie:  fmt.Sprintf("portknock/n%d/%s-to-guard", node, m.tag),
			})
		}
	}
	for _, m := range []struct {
		match openflow.Match
		tag   string
	}{{ethKnock, "knock"}, {ethGuarded, "guarded"}} {
		p.AddFlow(guard, 0, &openflow.FlowEntry{
			Priority: 100, Match: m.match, Goto: t0,
			Cookie: fmt.Sprintf("portknock/n%d/%s-dispatch", guard, m.tag),
		})
	}

	if cfg.Backend.Stateful() {
		// The guard's EFSM, keyed by client id: state s = number of
		// consecutive correct knocks, state len(seq) = open. State 0 keeps
		// the "fresh flow" meaning the state store requires.
		p.SetStateKey(guard, t0, []openflow.Field{pk.FClient})
		open := uint64(len(seq))
		for s, code := range seq {
			nextState := uint64(s + 1)
			p.AddState(guard, t0, &openflow.StateEntry{
				Priority: 300,
				State:    uint64(s),
				Match:    ethKnock.WithField(pk.FCode, uint64(code)),
				SetState: &nextState,
				Goto:     openflow.NoGoto,
				Cookie:   fmt.Sprintf("portknock/n%d/step%d", guard, s),
			})
		}
		zero := uint64(0)
		p.AddState(guard, t0, &openflow.StateEntry{
			Priority: 200, AnyState: true, Match: ethKnock,
			SetState: &zero, Goto: openflow.NoGoto,
			Cookie: fmt.Sprintf("portknock/n%d/reset", guard),
		})
		p.AddState(guard, t0, &openflow.StateEntry{
			Priority: 150, State: open, Match: ethGuarded,
			Actions: []openflow.Action{openflow.Output{Port: openflow.PortSelf}},
			Goto:    openflow.NoGoto,
			Cookie:  fmt.Sprintf("portknock/n%d/open", guard),
		})
		p.AddState(guard, t0, &openflow.StateEntry{
			Priority: 100, AnyState: true, Match: ethGuarded,
			Goto:   openflow.NoGoto,
			Cookie: fmt.Sprintf("portknock/n%d/deny", guard),
		})
	} else {
		// OF13: punt every knock; deny guarded traffic until Process has
		// installed the client's allow rule.
		p.AddFlow(guard, t0, &openflow.FlowEntry{
			Priority: 300, Match: ethKnock,
			Actions: []openflow.Action{openflow.Output{Port: openflow.PortController}},
			Goto:    openflow.NoGoto,
			Cookie:  fmt.Sprintf("portknock/n%d/punt", guard),
		})
		p.AddFlow(guard, t0, &openflow.FlowEntry{
			Priority: 100, Match: ethGuarded,
			Goto:   openflow.NoGoto,
			Cookie: fmt.Sprintf("portknock/n%d/deny", guard),
		})
	}
	if err := installProgram(c, p); err != nil {
		return nil, err
	}
	pk.Prog = p
	return pk, nil
}

// Identity declares no tag layout: the packets carry only a client id and
// a knock code, no DFS state.
func (pk *PortKnock) Identity() (*Program, *Layout, []uint16) {
	return pk.Prog, nil, []uint16{EthKnock, EthGuarded}
}

// Knock sends one knock packet for client id from switch from.
func (pk *PortKnock) Knock(from int, id, code uint32, at network.Time) {
	pkt := pk.L.NewPacket(EthKnock)
	pkt.Store(pk.FClient, uint64(id))
	pkt.Store(pk.FCode, uint64(code))
	pk.ctl.InjectHost(from, pkt, at)
}

// SendData sends one guarded data packet for client id from switch from.
// It is delivered to the protected service at the guard only if the
// client's knock sequence is complete.
func (pk *PortKnock) SendData(from int, id uint32, payload []byte, at network.Time) {
	pkt := pk.L.NewPacket(EthGuarded)
	pkt.Store(pk.FClient, uint64(id))
	pkt.Payload = payload
	pk.ctl.InjectHost(from, pkt, at)
}

// Process runs the OF13 controller assist: it consumes the punted knock
// packet-ins, advances each client's progress exactly as the stateful
// EFSM would, and installs a per-client allow rule when a sequence
// completes. It returns the ids opened this call. Under the stateful
// backend there is nothing to do and it returns nil.
func (pk *PortKnock) Process() []uint32 {
	if pk.be.Stateful() {
		return nil
	}
	var opened []uint32
	inbox := pk.ctl.Inbox()
	for ; pk.cursor < len(inbox); pk.cursor++ {
		pi := inbox[pk.cursor]
		if pi.Pkt.EthType != EthKnock || pi.Switch != pk.Guard {
			continue
		}
		id := uint32(pi.Pkt.Load(pk.FClient))
		code := uint32(pi.Pkt.Load(pk.FCode))
		s := pk.progress[id]
		if s < len(pk.Seq) && code == pk.Seq[s] {
			pk.progress[id] = s + 1
			if s+1 == len(pk.Seq) {
				pk.allow(id)
				opened = append(opened, id)
			}
		} else {
			pk.progress[id] = 0
		}
	}
	return opened
}

// allow installs the per-client open rule (the OF13 flow-mod).
func (pk *PortKnock) allow(id uint32) {
	p := openflow.NewProgram("portknock-allow", pk.Prog.Slot)
	p.Transient = true
	p.TagBytes = pk.L.TagBytes()
	p.Ensure(pk.Guard, pk.G.Degree(pk.Guard))
	p.AddFlow(pk.Guard, pk.t0, &openflow.FlowEntry{
		Priority: 200,
		Match:    openflow.MatchEth(EthGuarded).WithField(pk.FClient, uint64(id)),
		Actions:  []openflow.Action{openflow.Output{Port: openflow.PortSelf}},
		Goto:     openflow.NoGoto,
		Cookie:   fmt.Sprintf("portknock/n%d/allow-c%d", pk.Guard, id),
	})
	pk.ctl.InstallProgram(p)
}

// Open reports whether client id's knock sequence is currently complete —
// read from the guard's state table under the stateful backend, from the
// controller's progress map under OF13.
func (pk *PortKnock) Open(id uint32) bool {
	if pk.be.Stateful() {
		v, ok := pk.ctl.ReadState(pk.Guard, pk.t0, uint64(id))
		return ok && v == uint64(len(pk.Seq))
	}
	return pk.progress[id] == len(pk.Seq)
}
