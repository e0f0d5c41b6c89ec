// Package remote implements core.ControlPlane over binary OpenFlow 1.3:
// every switch of a simulated network gets an ofconn.Agent behind a real
// TCP listener, the fabric dials one ofconn.Client per switch, and all
// rule installation, packet injection and packet-in collection crosses
// those sockets as wire messages. SmartSouth services run unchanged on
// top — which is the strongest evidence that the compiler emits nothing
// beyond standard OpenFlow.
package remote

import (
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"smartsouth/internal/controller"
	"smartsouth/internal/network"
	"smartsouth/internal/ofconn"
	"smartsouth/internal/ofwire"
	"smartsouth/internal/openflow"
)

// Fabric couples a simulated network with per-switch OpenFlow sessions.
// It satisfies core.ControlPlane.
type Fabric struct {
	Net *network.Network
	// Stats counts control-channel traffic like the local controller.
	Stats controller.Stats

	agents    []*ofconn.Agent
	clients   []*ofconn.Client
	listeners []net.Listener
	serving   sync.WaitGroup
	programs  []*openflow.Program

	mu        sync.Mutex
	inbox     []controller.PacketIn
	queue     []pendingInject
	pendingAt map[int][]network.Time
	inTimes   map[int][]network.Time // punt times per switch, FIFO
	portDown  map[[2]int]bool        // built from OFPT_PORT_STATUS messages
	expectIns int
	gotIns    int
	expectPS  int
	gotPS     int
	firstErr  error
}

type pendingInject struct {
	sw     int
	inPort int
	pkt    *openflow.Packet
	at     network.Time
}

// New wires agents and clients around the network. Callers must Close the
// fabric when done.
func New(nw *network.Network) (*Fabric, error) {
	f := &Fabric{
		Net:       nw,
		pendingAt: make(map[int][]network.Time),
		inTimes:   make(map[int][]network.Time),
		portDown:  make(map[[2]int]bool),
	}
	f.agents = make([]*ofconn.Agent, nw.NumSwitches())
	f.clients = make([]*ofconn.Client, nw.NumSwitches())

	nw.OnPortChange = func(sw, port int, up bool) {
		// The switch announces the flip with a port-status message.
		f.mu.Lock()
		f.expectPS++
		f.mu.Unlock()
		if err := f.agents[sw].SendPortStatus(port, up); err != nil {
			f.fail(fmt.Errorf("remote: port-status from %d: %w", sw, err))
		}
	}

	nw.OnPacketIn = func(sw int, pkt *openflow.Packet) {
		// Runs inside RunNetwork (the simulator's goroutine): relay the
		// report through the switch's TCP session. The punt time is
		// remembered per switch (TCP preserves per-session order) so the
		// inbox can be ordered across switches — different sessions race,
		// exactly like real packet-ins from different switches.
		f.mu.Lock()
		f.expectIns++
		f.inTimes[sw] = append(f.inTimes[sw], f.Net.Sim.Now())
		f.mu.Unlock()
		if err := f.agents[sw].SendPacketIn(pkt.InPort, pkt); err != nil {
			f.fail(fmt.Errorf("remote: packet-in relay from %d: %w", sw, err))
		}
	}

	for i := 0; i < nw.NumSwitches(); i++ {
		i := i
		f.agents[i] = &ofconn.Agent{
			SW: nw.Switch(i),
			Inject: func(inPort int, actions []openflow.Action, pkt *openflow.Packet) {
				f.mu.Lock()
				at := network.Time(0)
				if q := f.pendingAt[i]; len(q) > 0 {
					at, f.pendingAt[i] = q[0], q[1:]
				}
				f.queue = append(f.queue, pendingInject{sw: i, inPort: inPort, pkt: pkt, at: at})
				f.mu.Unlock()
			},
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("remote: listen for switch %d: %w", i, err)
		}
		f.listeners = append(f.listeners, l)
		f.serving.Add(1)
		go func(l net.Listener, ag *ofconn.Agent) {
			defer f.serving.Done()
			c, err := l.Accept()
			if err != nil {
				return
			}
			if err := ag.Serve(c); err != nil {
				f.fail(fmt.Errorf("remote: agent: %w", err))
			}
		}(l, f.agents[i])

		tc, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("remote: dial switch %d: %w", i, err)
		}
		cl := ofconn.NewClient(tc)
		cl.OnPortStatus = func(ps ofwire.PortStatus) {
			f.mu.Lock()
			if ps.Up {
				delete(f.portDown, [2]int{i, ps.Port})
			} else {
				f.portDown[[2]int{i, ps.Port}] = true
			}
			f.gotPS++
			f.mu.Unlock()
		}
		if err := cl.Start(); err != nil {
			tc.Close()
			f.Close()
			return nil, fmt.Errorf("remote: session with switch %d: %w", i, err)
		}
		f.clients[i] = cl
		f.serving.Add(1)
		go func(sw int, cl *ofconn.Client) {
			defer f.serving.Done()
			for pi := range cl.PacketIns() {
				f.mu.Lock()
				f.Stats.PacketIns++
				f.Stats.OutBandBytes += pi.Pkt.Size()
				at := network.Time(0)
				if q := f.inTimes[sw]; len(q) > 0 {
					at, f.inTimes[sw] = q[0], q[1:]
				}
				f.inbox = append(f.inbox, controller.PacketIn{Switch: sw, Pkt: pi.Pkt, At: at})
				f.gotIns++
				f.mu.Unlock()
			}
		}(i, cl)
	}
	return f, nil
}

func (f *Fabric) fail(err error) {
	f.mu.Lock()
	if f.firstErr == nil {
		f.firstErr = err
	}
	f.mu.Unlock()
}

// Err returns the first asynchronous fabric error.
func (f *Fabric) Err() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.firstErr
}

// InstallProgram flushes a compiled program over the wire, batched: each
// switch's rules and groups travel in as few TypeBatch messages as the
// size cap allows, instead of one flow-mod/group-mod message per rule.
// FlowMods/GroupMods keep counting logical rules; InstallMsgs counts the
// messages actually written, which is where batching shows. The
// network's install ledger records the program (RecordInstall).
func (f *Fabric) InstallProgram(p *openflow.Program) {
	f.Net.RecordInstall(p)
	if p.StateCount() > 0 {
		// Binary OpenFlow 1.3 has no state-table messages; programs from
		// the stateful backend cannot cross this wire. The deployment
		// layer refuses the combination up front, so reaching this is a
		// programming error worth surfacing.
		f.fail(fmt.Errorf("remote: program %q contains %d state-table transitions, which OpenFlow 1.3 cannot carry", p.Service, p.StateCount()))
		return
	}
	for _, id := range p.SwitchIDs() {
		sp := p.At(id)
		msgs, err := f.clients[id].InstallBatch(sp.Flows, sp.Groups)
		f.mu.Lock()
		f.Stats.FlowMods += len(sp.Flows)
		f.Stats.GroupMods += len(sp.Groups)
		f.Stats.InstallMsgs += msgs
		f.mu.Unlock()
		if err != nil {
			f.fail(err)
			return
		}
	}
	if !p.Transient {
		f.mu.Lock()
		f.programs = append(f.programs, p)
		f.mu.Unlock()
	}
}

// Programs returns every program installed so far, in install order.
func (f *Fabric) Programs() []*openflow.Program {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]*openflow.Program(nil), f.programs...)
}

// DropPrograms forgets retained programs covering the given slot; the
// deployment layer calls it when it uninstalls a service. Switch state is
// not touched here — rule removal stays with the caller.
func (f *Fabric) DropPrograms(slot int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	kept := f.programs[:0]
	for _, p := range f.programs {
		if !p.CoversSlot(slot) {
			kept = append(kept, p)
		}
	}
	f.programs = kept
}

// ResetState is a no-op: an OpenFlow 1.3 fabric has no state tables to
// reset (stateful programs are rejected at install time).
func (f *Fabric) ResetState(tables ...int) {}

// ReadState reports "no such state table": OpenFlow 1.3 has no
// state-stats request.
func (f *Fabric) ReadState(sw, table int, key uint64) (uint64, bool) { return 0, false }

// PacketOut sends a wire PACKET_OUT; the agent's inject callback queues it
// for the simulator with the requested activation time (matched FIFO per
// switch, which TCP ordering guarantees).
func (f *Fabric) PacketOut(sw, inPort int, pkt *openflow.Packet, at network.Time) {
	f.mu.Lock()
	f.Stats.PacketOuts++
	f.Stats.OutBandBytes += pkt.Size()
	f.pendingAt[sw] = append(f.pendingAt[sw], at)
	f.mu.Unlock()
	if err := f.clients[sw].PacketOut(inPort, nil, pkt); err != nil {
		f.fail(err)
	}
}

// InjectHost injects in-band host traffic directly — hosts are part of
// the data plane, not the control channel.
func (f *Fabric) InjectHost(sw int, pkt *openflow.Packet, at network.Time) {
	f.Net.Inject(sw, openflow.PortController, pkt, at, network.HostInject)
}

// Inbox returns the packet-ins received over the wire so far, ordered by
// their punt time: different switches' sessions race each other on the
// way up, so the controller reorders by the per-switch timestamps
// (services like the splitting snapshot depend on report order).
func (f *Fabric) Inbox() []controller.PacketIn {
	f.mu.Lock()
	out := append([]controller.PacketIn(nil), f.inbox...)
	f.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// ClearInbox empties the inbox.
func (f *Fabric) ClearInbox() {
	f.mu.Lock()
	f.inbox = nil
	f.mu.Unlock()
}

// Sync sends a barrier on every session and waits for the replies: when
// it returns, every switch has applied every message sent before it. The
// agents apply installs on their own goroutines, so a caller that changes
// the data plane directly — a link failure through Net, say — must Sync
// after installing and before the change. RunNetwork syncs first.
func (f *Fabric) Sync() error {
	for _, cl := range f.clients {
		if err := cl.Barrier(); err != nil {
			return fmt.Errorf("remote: barrier: %w", err)
		}
	}
	return nil
}

// RunNetwork synchronises with every session (Sync), moves the queued
// packet-outs into the simulator, runs it to quiescence, and waits for
// all relayed packet-ins to arrive back over TCP.
func (f *Fabric) RunNetwork() (int, error) {
	if err := f.Sync(); err != nil {
		return 0, err
	}
	f.mu.Lock()
	queue := f.queue
	f.queue = nil
	f.mu.Unlock()
	for _, p := range queue {
		f.Net.Inject(p.sw, p.inPort, p.pkt, p.at, network.PacketOut)
	}

	steps, err := f.Net.Run()
	if err != nil {
		return steps, err
	}

	// Wait for the packet-in relays to land (bounded).
	deadline := time.Now().Add(5 * time.Second)
	f.mu.Lock()
	for f.gotIns < f.expectIns && time.Now().Before(deadline) && f.firstErr == nil {
		f.mu.Unlock()
		time.Sleep(time.Millisecond)
		f.mu.Lock()
	}
	lag := f.expectIns - f.gotIns
	err = f.firstErr
	f.mu.Unlock()
	if err != nil {
		return steps, err
	}
	if lag > 0 {
		return steps, fmt.Errorf("remote: %d packet-ins never arrived", lag)
	}
	return steps, f.WaitPortStatus()
}

// Now returns the simulator clock.
func (f *Fabric) Now() network.Time { return f.Net.Sim.Now() }

// PortLive reports the controller's port-status view, built exclusively
// from the OFPT_PORT_STATUS messages received over the wire (ports start
// up; a down message marks them, an up message clears them). Callers
// should WaitPortStatus (or RunNetwork, which waits) after failure
// injection so in-flight messages settle.
func (f *Fabric) PortLive(sw, port int) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return !f.portDown[[2]int{sw, port}]
}

// WaitPortStatus blocks until every announced port-status message has
// been received.
func (f *Fabric) WaitPortStatus() error {
	deadline := time.Now().Add(5 * time.Second)
	f.mu.Lock()
	defer f.mu.Unlock()
	for f.gotPS < f.expectPS {
		if time.Now().After(deadline) {
			return fmt.Errorf("remote: %d port-status messages missing", f.expectPS-f.gotPS)
		}
		f.mu.Unlock()
		time.Sleep(time.Millisecond)
		f.mu.Lock()
	}
	return nil
}

// GroupCounter recovers a round-robin group's counter value with a
// group-stats multipart request: the bucket packet counters sum to the
// number of fetch-and-increments, so value = total mod bucket count.
func (f *Fabric) GroupCounter(sw int, id uint32) int {
	gs, err := f.clients[sw].GroupStats(id)
	if err != nil {
		f.fail(err)
		return -1
	}
	return gs.Value()
}

// FlowStats reads one table's rule-hit statistics over the wire.
func (f *Fabric) FlowStats(sw, table int) ([]ofwire.FlowStat, error) {
	return f.clients[sw].FlowStats(table)
}

// Close tears down all sessions and listeners.
func (f *Fabric) Close() {
	for _, cl := range f.clients {
		if cl != nil {
			cl.Close()
		}
	}
	for _, l := range f.listeners {
		l.Close()
	}
	f.serving.Wait()
}
