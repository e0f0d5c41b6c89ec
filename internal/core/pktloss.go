package core

import (
	"fmt"

	"smartsouth/internal/network"
	"smartsouth/internal/openflow"
	"smartsouth/internal/topo"
)

// EthData marks host data traffic counted by the packet-loss monitor.
const EthData = 0x0800

// PktLoss implements the packet-loss monitoring extension of §3.3. Every
// switch port carries two *families* of smart counters — one for packets
// received, one for packets transmitted — with pairwise distinct prime
// moduli. Data-plane forwarding rules tick the egress counters, ingress
// rules tick the ingress counters. A SmartSouth monitoring traversal then
// walks the network: before every send it fetches the egress counters into
// the packet, and on every arrival the receiver fetches its ingress
// counters and compares, per prime, via enumerated equality rules. Any
// mismatch means packets vanished on that directed link and is punted to
// the controller.
//
// A single counter of modulus p misses losses that are ≡ 0 (mod p); using
// several distinct primes shrinks the false-negative rate to losses
// divisible by their product (the paper's suggestion).
type PktLoss struct {
	G      *topo.Graph
	L      *Layout
	Tmpl   *Template
	Prog   *Program
	Primes []int

	// CIn[node][port-1][j] / COut[node][port-1][j] are the per-port
	// ingress/egress counters for prime j.
	CIn, COut [][][]*SmartCounter

	FDst  openflow.Field   // data packet destination
	FPort openflow.Field   // report: ingress port of the mismatching link
	FVOut []openflow.Field // carried egress counter values, one per prime
	FVIn  []openflow.Field // fetched ingress counter values

	ctl ControlPlane
	be  Backend
}

// DefaultPrimes is the counter-size set used when none is given.
var DefaultPrimes = []int{7, 11, 13}

// InstallPktLoss compiles and installs the monitor, including destination
// based shortest-path forwarding (with egress/ingress counting) for
// EthData traffic. It occupies the slot's whole table block.
func InstallPktLoss(c ControlPlane, g *topo.Graph, slot int, primes []int, opts ...InstallOption) (*PktLoss, error) {
	if len(primes) == 0 {
		primes = append([]int(nil), DefaultPrimes...)
	}
	for _, p := range primes {
		if p < 2 || p > 64 {
			return nil, fmt.Errorf("core: prime modulus %d out of range", p)
		}
	}
	if len(primes) > 3 {
		return nil, fmt.Errorf("core: at most 3 prime counters per port (table block size), got %d", len(primes))
	}

	cfg := resolveInstall(opts)
	l := cfg.Backend.NewLayout(g)
	pl := &PktLoss{
		G: g, L: l, Primes: primes, ctl: c, be: cfg.Backend,
		FDst:  l.Alloc("dst", openflow.BitsFor(uint64(g.NumNodes()))),
		FPort: l.Alloc("report_port", openflow.BitsFor(uint64(g.MaxDegree()))),
	}
	for j, p := range primes {
		pl.FVOut = append(pl.FVOut, l.Alloc(fmt.Sprintf("v_out%d", j), openflow.BitsFor(uint64(p-1))))
		pl.FVIn = append(pl.FVIn, l.Alloc(fmt.Sprintf("v_in%d", j), openflow.BitsFor(uint64(p-1))))
	}

	base := 1 + slot*10
	preT := base
	cmpT := func(j int) int { return base + 1 + j } // one table per prime
	t0 := base + 1 + len(primes)
	tFin := t0 + 1
	fwdT := tFin + 1
	gb := uint32(slot) << 20
	inGID := func(port, j int) uint32 { return gb + 0x80000 + uint32(port*8+j) }
	outGID := func(port, j int) uint32 { return gb + 0xC0000 + uint32(port*8+j) }

	prog := newProgram("pktloss", slot, g, l)

	// Counters.
	pl.CIn = make([][][]*SmartCounter, g.NumNodes())
	pl.COut = make([][][]*SmartCounter, g.NumNodes())
	for i := 0; i < g.NumNodes(); i++ {
		d := g.Degree(i)
		pl.CIn[i] = make([][]*SmartCounter, d)
		pl.COut[i] = make([][]*SmartCounter, d)
		for p := 1; p <= d; p++ {
			for j, prime := range primes {
				in, err := CompileSmartCounter(prog, i, d, inGID(p, j), pl.FVIn[j], prime)
				if err != nil {
					return nil, err
				}
				out, err := CompileSmartCounter(prog, i, d, outGID(p, j), pl.FVOut[j], prime)
				if err != nil {
					return nil, err
				}
				pl.CIn[i][p-1] = append(pl.CIn[i][p-1], in)
				pl.COut[i][p-1] = append(pl.COut[i][p-1], out)
			}
		}
	}

	fetchOut := func(port int) []openflow.Action {
		var acts []openflow.Action
		for j := range primes {
			acts = append(acts, openflow.Group{ID: outGID(port, j)})
		}
		return acts
	}
	fetchIn := func(port int) []openflow.Action {
		var acts []openflow.Action
		for j := range primes {
			acts = append(acts, openflow.Group{ID: inGID(port, j)})
		}
		return acts
	}

	// Monitoring traversal: every send fetches the egress counters;
	// every arrival fetches ingress counters and runs the comparison
	// chain (pre-table + one table per prime) before normal processing.
	pl.Tmpl = &Template{
		G: g, L: l, Eth: EthPktLoss, T0: t0, TFin: tFin, GroupBase: gb,
		Hooks: Hooks{
			SendNext: func(node, s, par, out int) []openflow.Action {
				return fetchOut(out)
			},
			SendParent: func(node, par int) []openflow.Action {
				return fetchOut(par)
			},
			BouncePerIn: true,
			Bounce: func(node, in int) []Variant {
				if in == openflow.AnyPort {
					return nil
				}
				return []Variant{{Do: fetchOut(in)}}
			},
			Finish: func(int) []openflow.Action {
				// Completion report with report_port = 0.
				return []openflow.Action{
					openflow.SetField{F: pl.FPort, Value: 0},
					openflow.Output{Port: openflow.PortController},
				}
			},
		},
	}
	if err := cfg.Backend.Lower(pl.Tmpl, prog); err != nil {
		return nil, err
	}

	ethPL := openflow.MatchEth(EthPktLoss)
	ethData := openflow.MatchEth(EthData)
	for i := 0; i < g.NumNodes(); i++ {
		d := g.Degree(i)

		// Monitor dispatch through the comparison chain.
		prog.AddFlow(i, 0, &openflow.FlowEntry{
			Priority: 101, Match: ethPL, Goto: preT,
			Cookie: fmt.Sprintf("pktloss/n%d/dispatch", i),
		})
		for q := 1; q <= d; q++ {
			acts := []openflow.Action{openflow.SetField{F: pl.FPort, Value: uint64(q)}}
			acts = append(acts, fetchIn(q)...)
			prog.AddFlow(i, preT, &openflow.FlowEntry{
				Priority: 200, Match: ethPL.WithInPort(q),
				Actions: acts, Goto: cmpT(0),
				Cookie: fmt.Sprintf("pktloss/n%d/rx-in%d", i, q),
			})
		}
		// Injected trigger (no ingress port): skip the comparison chain.
		prog.AddFlow(i, preT, &openflow.FlowEntry{
			Priority: 100, Match: ethPL, Goto: t0,
			Cookie: fmt.Sprintf("pktloss/n%d/inject", i),
		})

		// Comparison chain: per prime, equality passes on; any miss is a
		// loss report (and the walk continues so every link is checked).
		for j, prime := range primes {
			next := cmpT(j + 1)
			if j == len(primes)-1 {
				next = t0
			}
			for x := 0; x < prime; x++ {
				prog.AddFlow(i, cmpT(j), &openflow.FlowEntry{
					Priority: 200,
					Match:    ethPL.WithField(pl.FVOut[j], uint64(x)).WithField(pl.FVIn[j], uint64(x)),
					Goto:     next,
					Cookie:   fmt.Sprintf("pktloss/n%d/cmp%d-eq%d", i, j, x),
				})
			}
			prog.AddFlow(i, cmpT(j), &openflow.FlowEntry{
				Priority: 100, Match: ethPL,
				Actions: []openflow.Action{openflow.Output{Port: openflow.PortController}},
				Goto:    next,
				Cookie:  fmt.Sprintf("pktloss/n%d/cmp%d-mismatch", i, j),
			})
		}

		// Data plane: ingress counting, then destination forwarding with
		// egress counting.
		for q := 1; q <= d; q++ {
			prog.AddFlow(i, 0, &openflow.FlowEntry{
				Priority: 90, Match: ethData.WithInPort(q),
				Actions: fetchIn(q), Goto: fwdT,
				Cookie: fmt.Sprintf("pktloss/n%d/data-rx-in%d", i, q),
			})
		}
		prog.AddFlow(i, 0, &openflow.FlowEntry{
			Priority: 80, Match: ethData, Goto: fwdT,
			Cookie: fmt.Sprintf("pktloss/n%d/data-inject", i),
		})
		prog.AddFlow(i, fwdT, &openflow.FlowEntry{
			Priority: 200, Match: ethData.WithField(pl.FDst, uint64(i)),
			Actions: []openflow.Action{openflow.Output{Port: openflow.PortSelf}},
			Goto:    openflow.NoGoto,
			Cookie:  fmt.Sprintf("pktloss/n%d/data-local", i),
		})
	}
	// Shortest-path next hops per destination.
	for dst := 0; dst < g.NumNodes(); dst++ {
		next := topo.BFSPaths(g, dst)
		for node, port := range next {
			acts := append(fetchOut(port), openflow.Output{Port: port})
			prog.AddFlow(node, fwdT, &openflow.FlowEntry{
				Priority: 100, Match: ethData.WithField(pl.FDst, uint64(dst)),
				Actions: acts, Goto: openflow.NoGoto,
				Cookie: fmt.Sprintf("pktloss/n%d/data-to-%d", node, dst),
			})
		}
	}
	if err := installProgram(c, prog); err != nil {
		return nil, err
	}
	pl.Prog = prog
	return pl, nil
}

// Identity claims the data packets it counts as well as its sweep.
func (pl *PktLoss) Identity() (*Program, *Layout, []uint16) {
	return pl.Prog, pl.L, []uint16{EthPktLoss, EthData}
}

// SendData injects one data packet at switch from addressed to switch to.
func (pl *PktLoss) SendData(from, to int, at network.Time) {
	pkt := pl.L.NewPacket(EthData)
	pkt.Store(pl.FDst, uint64(to))
	pl.ctl.InjectHost(from, pkt, at)
}

// Monitor launches one monitoring traversal from root (one out-of-band
// message; the completion report is the second).
func (pl *PktLoss) Monitor(root int, at network.Time) {
	resetStateful(pl.ctl, pl.be, pl.Prog)
	pl.ctl.PacketOut(root, openflow.PortController, pl.L.NewPacket(EthPktLoss), at)
}

// LossReport names a directed link with detected loss: packets entering
// Switch on Port (i.e. sent by Peer) went missing.
type LossReport struct {
	Switch int
	Port   int
	Peer   int
}

// Reports decodes and deduplicates the monitor's loss reports; done tells
// whether the traversal's completion report has arrived.
func (pl *PktLoss) Reports() (losses []LossReport, done bool) {
	seen := map[[2]int]bool{}
	for _, pi := range pl.ctl.Inbox() {
		if pi.Pkt.EthType != EthPktLoss {
			continue
		}
		port := int(pi.Pkt.Load(pl.FPort))
		if port == 0 {
			done = true
			continue
		}
		key := [2]int{pi.Switch, port}
		if seen[key] {
			continue
		}
		seen[key] = true
		r := LossReport{Switch: pi.Switch, Port: port, Peer: -1}
		if v, _, ok := pl.G.Neighbor(pi.Switch, port); ok {
			r.Peer = v
		}
		losses = append(losses, r)
	}
	return losses, done
}
