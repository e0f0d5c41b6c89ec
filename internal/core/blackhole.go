package core

import (
	"fmt"

	"smartsouth/internal/controller"
	"smartsouth/internal/network"
	"smartsouth/internal/openflow"
	"smartsouth/internal/topo"
)

// EthBlackholeChk is the EtherType of the second (checker) traversal of
// the smart-counter blackhole detector.
const EthBlackholeChk = 0x8808

// Report names a suspected blackhole: the directed port (Switch, Port)
// whose transmissions vanish, and the link peer if known.
type Report struct {
	Switch int
	Port   int
	Peer   int // -1 when the topology view cannot resolve it
}

func (r Report) String() string {
	return fmt.Sprintf("blackhole at switch %d port %d (toward %d)", r.Switch, r.Port, r.Peer)
}

// ---------------------------------------------------------------------------
// Variant 1 (§3.3): TTL binary search.
// ---------------------------------------------------------------------------

// BlackholeTTL localises a silent packet-dropping link by running DFS
// probes with increasing TTL budgets. Every switch visit decrements the
// TTL; at zero the packet is punted to the controller instead of being
// forwarded. A probe that neither expires nor completes was swallowed, so
// binary search over the TTL finds the exact hop where packets die, and
// the last expiry report (switch identity plus the packet's DFS state)
// identifies the edge about to be crossed. Cost: ~2 log E out-of-band
// messages, a partial traversal in-band per probe.
type BlackholeTTL struct {
	G     *topo.Graph
	L     *Layout
	Tmpl  *Template
	Prog  *Program
	FKind openflow.Field // 1 = TTL expiry report, 2 = completion report
	ctl   ControlPlane
	be    Backend
}

const (
	reportExpiry   = 1
	reportComplete = 2
)

// InstallBlackholeTTL compiles and installs the TTL-probing detector.
func InstallBlackholeTTL(c ControlPlane, g *topo.Graph, slot int, opts ...InstallOption) (*BlackholeTTL, error) {
	cfg := resolveInstall(opts)
	l := cfg.Backend.NewLayout(g)
	b := &BlackholeTTL{G: g, L: l, ctl: c, be: cfg.Backend, FKind: l.Alloc("report_kind", 2)}
	base := 1 + slot*10
	preT, t0, tFin := base, base+1, base+2
	b.Tmpl = &Template{
		G: g, L: l, Eth: EthBlackhole, T0: t0, TFin: tFin, GroupBase: uint32(slot) << 20,
		Hooks: Hooks{
			Finish: func(int) []openflow.Action {
				return []openflow.Action{
					openflow.SetField{F: b.FKind, Value: reportComplete},
					openflow.Output{Port: openflow.PortController},
				}
			},
		},
	}
	p := newProgram("blackhole-ttl", slot, g, l)
	if err := cfg.Backend.Lower(b.Tmpl, p); err != nil {
		return nil, err
	}
	eth := openflow.MatchEth(EthBlackhole)
	for i := 0; i < g.NumNodes(); i++ {
		// Steer the service through the TTL pre-table (overrides the
		// template's dispatcher by priority).
		p.AddFlow(i, 0, &openflow.FlowEntry{
			Priority: 101, Match: eth, Goto: preT,
			Cookie: fmt.Sprintf("bh-ttl/n%d/dispatch", i),
		})
		p.AddFlow(i, preT, &openflow.FlowEntry{
			Priority: 200, Match: eth.WithTTL(0),
			Actions: []openflow.Action{
				openflow.SetField{F: b.FKind, Value: reportExpiry},
				openflow.Output{Port: openflow.PortController},
			},
			Goto:   openflow.NoGoto,
			Cookie: fmt.Sprintf("bh-ttl/n%d/expired", i),
		})
		p.AddFlow(i, preT, &openflow.FlowEntry{
			Priority: 100, Match: eth,
			Actions: []openflow.Action{openflow.DecTTL{}},
			Goto:    t0,
			Cookie:  fmt.Sprintf("bh-ttl/n%d/dec", i),
		})
	}
	if err := installProgram(c, p); err != nil {
		return nil, err
	}
	b.Prog = p
	return b, nil
}

func (b *BlackholeTTL) Identity() (*Program, *Layout, []uint16) {
	return b.Prog, b.L, []uint16{EthBlackhole}
}

// probeOutcome classifies one probe.
type probeOutcome int

const (
	probeSilent probeOutcome = iota
	probeExpired
	probeCompleted
)

// probe sends one trigger with the given TTL budget and runs the network
// to quiescence.
func (b *BlackholeTTL) probe(root int, ttl int) (probeOutcome, controller.PacketIn, error) {
	resetStateful(b.ctl, b.be, b.Prog)
	before := len(b.ctl.Inbox())
	pkt := b.L.NewPacket(EthBlackhole)
	pkt.TTL = uint8(ttl)
	b.ctl.PacketOut(root, openflow.PortController, pkt, b.ctl.Now())
	if _, err := b.ctl.RunNetwork(); err != nil {
		return probeSilent, controller.PacketIn{}, err
	}
	for _, pi := range b.ctl.Inbox()[before:] {
		if pi.Pkt.EthType != EthBlackhole {
			continue
		}
		switch pi.Pkt.Load(b.FKind) {
		case reportExpiry:
			return probeExpired, pi, nil
		case reportComplete:
			return probeCompleted, pi, nil
		}
	}
	return probeSilent, controller.PacketIn{}, nil
}

// Locate runs the binary search from the given root. It returns nil when
// no blackhole exists on the traversal. maxHops bounds the search; pass 0
// for the worst-case bound 4E+2 (which must fit the 8-bit TTL — larger
// networks need probing from several roots or a wider TTL stack; see
// DESIGN.md).
func (b *BlackholeTTL) Locate(root, maxHops int) (*Report, error) {
	if maxHops <= 0 {
		maxHops = 4*b.G.NumEdges() + 2
	}
	if maxHops > 255 {
		maxHops = 255
	}
	out, _, err := b.probe(root, maxHops)
	if err != nil {
		return nil, err
	}
	switch out {
	case probeCompleted:
		return nil, nil // healthy
	case probeExpired:
		return nil, fmt.Errorf("core: traversal longer than maxHops=%d", maxHops)
	}
	// probe(t) is silent iff the fatal hop index h* <= t; find h*.
	lo, hi := 0, maxHops // lo: not silent, hi: silent
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		out, _, err := b.probe(root, mid)
		if err != nil {
			return nil, err
		}
		if out == probeSilent {
			hi = mid
		} else {
			lo = mid
		}
	}
	// The probe with TTL = h*-1 expires at the switch about to send the
	// fatal hop; its packet state tells us which port comes next.
	out, pi, err := b.probe(root, hi-1)
	if err != nil {
		return nil, err
	}
	if out != probeExpired {
		return nil, fmt.Errorf("core: inconsistent probe outcome %d at ttl %d", out, hi-1)
	}
	port := b.nextPort(pi.Switch, pi.Pkt)
	rep := &Report{Switch: pi.Switch, Port: port, Peer: -1}
	if v, _, ok := b.G.Neighbor(pi.Switch, port); ok {
		rep.Peer = v
	}
	return rep, nil
}

// nextPort replays one step of Algorithm 1 at switch s from the reported
// packet state — exactly what the controller application does with its
// topology and port-status view. Under the stateful backend the DFS
// position is not in the packet; the controller reads the expiry switch's
// state table instead (one extra out-of-band read per located blackhole).
func (b *BlackholeTTL) nextPort(s int, pkt *openflow.Packet) int {
	d := b.G.Degree(s)
	var par, cur int
	if b.L.Stateful() {
		v, _ := b.ctl.ReadState(s, b.Tmpl.T0, 0)
		B := openflow.BitsFor(uint64(d))
		par, cur = int(v>>B), int(v&(uint64(1)<<B-1))
	} else {
		par = int(pkt.Load(b.L.Par[s]))
		cur = int(pkt.Load(b.L.Cur[s]))
	}
	advance := func(from, p int) int {
		out := from
		for out <= d {
			if out != p && b.ctl.PortLive(s, out) {
				return out
			}
			out++
		}
		return p
	}
	switch {
	case pkt.Load(b.L.Start) == 0:
		return advance(1, 0)
	case cur == 0:
		return advance(1, pkt.InPort)
	case pkt.InPort == cur && cur != par:
		return advance(cur+1, par)
	default:
		return pkt.InPort // bounce
	}
}

// ---------------------------------------------------------------------------
// Variant 2 (§3.3): smart counters, two traversals, 3 out-of-band messages.
// ---------------------------------------------------------------------------

// BlackholeCounter is the paper's preferred detector. Every switch port
// carries a smart counter. The first traversal "dances" over each link the
// first time it is used — forward, back, forward — so both port counters of
// a healthy link reach at least 2, while a silent failure in either
// direction strands some port counter at exactly 1 (and kills the
// traversal right there). After twice the maximum network delay the
// controller releases a second traversal that fetch-and-increments each
// port counter before using the port: reading 1 means the port faces the
// blackhole, and its description is punted to the controller.
//
// Total out-of-band cost: two triggers plus one report — O(1), independent
// of where the failure is, versus O(E) for controller-driven probing.
type BlackholeCounter struct {
	G *topo.Graph
	L *Layout
	// A is the dance traversal, B the checker traversal.
	A, B     *Template
	Prog     *Program
	FRepeat  openflow.Field
	FCtr     openflow.Field
	FOut     openflow.Field
	Counters [][]*SmartCounter // [node][port-1]
	ctl      ControlPlane
	be       Backend
}

// counterModulus is the smart-counter size. Port counts during one
// detection round stay below 6, so 8 avoids wrap-around entirely.
const counterModulus = 8

// InstallBlackholeCounter compiles and installs the smart-counter
// detector. It occupies the slot's whole table block (pre-table, dance
// tables, checker tables).
func InstallBlackholeCounter(c ControlPlane, g *topo.Graph, slot int, opts ...InstallOption) (*BlackholeCounter, error) {
	cfg := resolveInstall(opts)
	l := cfg.Backend.NewLayout(g)
	b := &BlackholeCounter{
		G: g, L: l, ctl: c, be: cfg.Backend,
		FRepeat: l.Alloc("repeat", 2),
		FCtr:    l.Alloc("ctr_val", openflow.BitsFor(counterModulus-1)),
		FOut:    l.Alloc("out_port", openflow.BitsFor(uint64(g.MaxDegree()))),
	}
	base := 1 + slot*10
	preT, t0A, tFinA := base, base+1, base+2
	t0B, tFinB := base+4, base+5
	gb := uint32(slot) << 20
	ctrGID := func(port int) uint32 { return gb + 0x80000 + uint32(port) }

	prog := newProgram("blackhole-ctr", slot, g, l)

	// Per-port smart counters, shared by both traversals.
	b.Counters = make([][]*SmartCounter, g.NumNodes())
	for i := 0; i < g.NumNodes(); i++ {
		b.Counters[i] = make([]*SmartCounter, g.Degree(i))
		for p := 1; p <= g.Degree(i); p++ {
			sc, err := CompileSmartCounter(prog, i, g.Degree(i), ctrGID(p), b.FCtr, counterModulus)
			if err != nil {
				return nil, err
			}
			b.Counters[i][p-1] = sc
		}
	}

	fetch := func(port int) openflow.Action { return openflow.Group{ID: ctrGID(port)} }

	// Dance traversal (A).
	b.A = &Template{
		G: g, L: l, Eth: EthBlackhole, T0: t0A, TFin: tFinA, GroupBase: gb,
		Hooks: Hooks{
			DeferOutput: true, OutField: b.FOut,
			SendNext: func(node, s, par, out int) []openflow.Action {
				return []openflow.Action{fetch(out)}
			},
			// Returns to the parent fetch too: it refreshes the fetched
			// value to the (>= 2) tree-edge count so the stale value of a
			// previous advance cannot trigger a spurious dance.
			SendParent: func(node, par int) []openflow.Action {
				return []openflow.Action{fetch(par)}
			},
			Bounce: func(node, in int) []Variant {
				return []Variant{{Do: []openflow.Action{openflow.SetField{F: b.FRepeat, Value: 0}}}}
			},
			// A healthy dance traversal ends silently at the root; only
			// the checker reports.
		},
	}
	if err := cfg.Backend.Lower(b.A, prog); err != nil {
		return nil, err
	}

	// Checker traversal (B).
	b.B = &Template{
		G: g, L: l, Eth: EthBlackholeChk, T0: t0B, TFin: tFinB, GroupBase: gb + 0x40000,
		Hooks: Hooks{
			DeferOutput: true, OutField: b.FOut,
			SendNext: func(node, s, par, out int) []openflow.Action {
				return []openflow.Action{fetch(out)}
			},
			SendParent: func(node, par int) []openflow.Action {
				return []openflow.Action{fetch(par)}
			},
			Finish: func(int) []openflow.Action {
				// Completion with out_port=0: "no blackhole found".
				return []openflow.Action{openflow.Output{Port: openflow.PortController}}
			},
		},
	}
	if err := cfg.Backend.Lower(b.B, prog); err != nil {
		return nil, err
	}

	ethA := openflow.MatchEth(EthBlackhole)
	ethB := openflow.MatchEth(EthBlackholeChk)
	for i := 0; i < g.NumNodes(); i++ {
		d := g.Degree(i)

		// Dance pre-table: echo/resend/absorb the three dance messages
		// before any traversal processing. Overrides A's dispatcher.
		prog.AddFlow(i, 0, &openflow.FlowEntry{
			Priority: 101, Match: ethA, Goto: preT,
			Cookie: fmt.Sprintf("bh-ctr/n%d/dispatch", i),
		})
		for q := 1; q <= d; q++ {
			prog.AddFlow(i, preT, &openflow.FlowEntry{
				Priority: 300, Match: ethA.WithInPort(q).WithField(b.FRepeat, 3),
				Actions: []openflow.Action{fetch(q),
					openflow.SetField{F: b.FRepeat, Value: 2},
					openflow.Output{Port: openflow.PortInPort}},
				Goto:   openflow.NoGoto,
				Cookie: fmt.Sprintf("bh-ctr/n%d/dance-echo-in%d", i, q),
			})
			prog.AddFlow(i, preT, &openflow.FlowEntry{
				Priority: 300, Match: ethA.WithInPort(q).WithField(b.FRepeat, 2),
				Actions: []openflow.Action{fetch(q),
					openflow.SetField{F: b.FRepeat, Value: 1},
					openflow.Output{Port: openflow.PortInPort}},
				Goto:   openflow.NoGoto,
				Cookie: fmt.Sprintf("bh-ctr/n%d/dance-resend-in%d", i, q),
			})
			prog.AddFlow(i, preT, &openflow.FlowEntry{
				Priority: 290, Match: ethA.WithInPort(q).WithField(b.FRepeat, 1),
				Actions: []openflow.Action{fetch(q),
					openflow.SetField{F: b.FRepeat, Value: 0}},
				Goto:   t0A,
				Cookie: fmt.Sprintf("bh-ctr/n%d/dance-done-in%d", i, q),
			})
		}
		prog.AddFlow(i, preT, &openflow.FlowEntry{
			Priority: 100, Match: ethA, Goto: t0A,
			Cookie: fmt.Sprintf("bh-ctr/n%d/plain", i),
		})

		// Dance decision table (A's finish table): a fetched value of 0
		// means this directed edge is fresh — dance it; otherwise plain.
		for k := 1; k <= d; k++ {
			prog.AddFlow(i, tFinA, &openflow.FlowEntry{
				Priority: PrioFinish + 60,
				Match:    ethA.WithField(b.FOut, uint64(k)).WithField(b.FCtr, 0),
				Actions: []openflow.Action{
					openflow.SetField{F: b.FRepeat, Value: 3},
					openflow.Output{Port: k}},
				Goto:   openflow.NoGoto,
				Cookie: fmt.Sprintf("bh-ctr/n%d/dance-start-k%d", i, k),
			})
			prog.AddFlow(i, tFinA, &openflow.FlowEntry{
				Priority: PrioFinish + 40,
				Match:    ethA.WithField(b.FOut, uint64(k)),
				Actions: []openflow.Action{
					openflow.SetField{F: b.FRepeat, Value: 0},
					openflow.Output{Port: k}},
				Goto:   openflow.NoGoto,
				Cookie: fmt.Sprintf("bh-ctr/n%d/plain-k%d", i, k),
			})
		}

		// Checker decision table (B's finish table): a fetched value of 1
		// marks the blackhole port — report it; otherwise forward.
		for k := 1; k <= d; k++ {
			prog.AddFlow(i, tFinB, &openflow.FlowEntry{
				Priority: PrioFinish + 60,
				Match:    ethB.WithField(b.FOut, uint64(k)).WithField(b.FCtr, 1),
				Actions:  []openflow.Action{openflow.Output{Port: openflow.PortController}},
				Goto:     openflow.NoGoto,
				Cookie:   fmt.Sprintf("bh-ctr/n%d/report-k%d", i, k),
			})
			prog.AddFlow(i, tFinB, &openflow.FlowEntry{
				Priority: PrioFinish + 40,
				Match:    ethB.WithField(b.FOut, uint64(k)),
				Actions:  []openflow.Action{openflow.Output{Port: k}},
				Goto:     openflow.NoGoto,
				Cookie:   fmt.Sprintf("bh-ctr/n%d/fwd-k%d", i, k),
			})
		}
	}
	if err := installProgram(c, prog); err != nil {
		return nil, err
	}
	b.Prog = prog
	return b, nil
}

func (b *BlackholeCounter) Identity() (*Program, *Layout, []uint16) {
	return b.Prog, b.L, []uint16{EthBlackhole, EthBlackholeChk}
}

// Detect launches the two traversals from root: the dance immediately, the
// checker after guard (use 0 for an automatic twice-the-worst-case-delay
// guard). Run the network afterwards and call Outcome.
func (b *BlackholeCounter) Detect(root int, at, guard network.Time) {
	if guard <= 0 {
		// Worst case: ~6E dance crossings at the default 1µs link delay,
		// doubled for safety (the paper's "twice the maximum delay").
		guard = network.Time(12*(b.G.NumEdges()+2)) * 1000
	}
	resetStateful(b.ctl, b.be, b.Prog)
	b.ctl.PacketOut(root, openflow.PortController, b.L.NewPacket(EthBlackhole), at)
	b.ctl.PacketOut(root, openflow.PortController, b.L.NewPacket(EthBlackholeChk), at+guard)
}

// Outcome scans the controller inbox for the checker's verdict. found
// reports whether a blackhole was located; done reports whether any
// verdict (including "network healthy") has arrived.
func (b *BlackholeCounter) Outcome() (rep *Report, found, done bool) {
	for _, pi := range b.ctl.Inbox() {
		if pi.Pkt.EthType != EthBlackholeChk {
			continue
		}
		port := int(pi.Pkt.Load(b.FOut))
		if port == 0 {
			return nil, false, true // completed: healthy
		}
		r := &Report{Switch: pi.Switch, Port: port, Peer: -1}
		if v, _, ok := b.G.Neighbor(pi.Switch, port); ok {
			r.Peer = v
		}
		return r, true, true
	}
	return nil, false, false
}

// ResetCounters zeroes every smart counter, preparing a fresh detection
// round: one transient program re-sends every counter group, so each
// switch sees a single transaction — the way a controller bundles
// group-mods — rather than one per counter.
func (b *BlackholeCounter) ResetCounters() {
	p := openflow.NewProgram("smart-counter-reset", b.Prog.Slot)
	p.Transient = true
	for sw, row := range b.Counters {
		if len(row) == 0 {
			continue
		}
		p.Ensure(sw, b.G.Degree(sw))
		for _, sc := range row {
			p.AddGroup(sw, sc.groupEntry())
		}
	}
	b.ctl.InstallProgram(p)
}
