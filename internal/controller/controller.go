// Package controller models the SDN control plane: an out-of-band channel
// to every switch for flow-mod/group-mod installation (the SmartSouth
// offline stage), packet-out injection and packet-in reception (the
// runtime stage), plus the controller-centric baseline applications the
// paper argues against (out-of-band topology discovery, reactive
// forwarding, per-link probing).
//
// All control-channel traffic is counted so experiments can fill the
// "out-band #msgs / size" columns of Table 2 and the control-load
// comparison of claim C4.
package controller

import (
	"smartsouth/internal/network"
	"smartsouth/internal/openflow"
)

// PacketIn is one packet a switch punted to the controller.
type PacketIn struct {
	Switch int
	Pkt    *openflow.Packet
	At     network.Time
}

// Stats counts control-channel traffic. FlowMods/GroupMods belong to the
// offline stage and are reported separately from the runtime PacketOut /
// PacketIn messages that Table 2 calls "out-band" messages.
type Stats struct {
	FlowMods   int
	GroupMods  int
	PacketOuts int
	PacketIns  int
	// OutBandBytes sums the payload size of runtime messages only.
	OutBandBytes int
	// InstallMsgs counts the control-channel messages the offline stage
	// actually used: one batched transaction per switch per program.
	// FlowMods/GroupMods stay logical rule counts, so batching shows up as
	// InstallMsgs << FlowMods+GroupMods.
	InstallMsgs int
}

// RuntimeMsgs is the Table-2 "out-band #msgs" figure: packet-outs plus
// packet-ins.
func (s Stats) RuntimeMsgs() int { return s.PacketOuts + s.PacketIns }

// Controller is attached to a network and owns its OnPacketIn hook.
// Create it before installing services so packet-ins are not lost.
type Controller struct {
	Net   *network.Network
	Stats Stats

	inbox    []PacketIn
	programs []*openflow.Program
	// OnPacketIn, if set, observes every packet-in as it arrives (the
	// inbox is appended regardless).
	OnPacketIn func(PacketIn)
}

// New attaches a controller to the network.
func New(net *network.Network) *Controller {
	c := &Controller{Net: net}
	net.OnPacketIn = func(sw int, pkt *openflow.Packet) {
		c.Stats.PacketIns++
		c.Stats.OutBandBytes += pkt.Size()
		pi := PacketIn{Switch: sw, Pkt: pkt, At: net.Sim.Now()}
		c.inbox = append(c.inbox, pi)
		if c.OnPacketIn != nil {
			c.OnPacketIn(pi)
		}
	}
	return c
}

// Inbox returns all packet-ins received so far.
func (c *Controller) Inbox() []PacketIn { return c.inbox }

// ClearInbox empties the inbox and returns the packets to the packet
// pool (accounting is untouched). Inbox packets are owned by the
// controller: consumers decode them in place — decoding copies what it
// keeps — so by the time the inbox is cleared no live reference remains,
// and recycling here is what keeps a steady monitoring loop (trigger,
// run, collect, reset) from leaking one full-trace report packet per
// sweep.
func (c *Controller) ClearInbox() {
	for _, pi := range c.inbox {
		pi.Pkt.Release()
	}
	c.inbox = c.inbox[:0]
}

// InstallProgram applies a compiled program, batched per switch: each
// switch is handed the program's own entries and groups (a program is a
// read-only compile artifact; the switch keeps the runtime state on its
// side), the dispatch matchers of the tables the program wrote to are
// recompiled — install is the one seam both backends' lowerings pass
// through, and CompileDispatch skips tables that are still current, so a
// group-only or state-only program compiles nothing — and the program is
// retained for declarative accounting (rule-space figures are read off
// installed programs, not live switches). Materialization and dispatch
// compilation touch only their target switch, so switches install in
// parallel (openflow.EachSwitch); accounting stays serial.
func (c *Controller) InstallProgram(p *openflow.Program) {
	ids := p.SwitchIDs()
	for _, id := range ids {
		sp := p.At(id)
		c.Stats.FlowMods += len(sp.Flows)
		c.Stats.GroupMods += len(sp.Groups)
		c.Stats.InstallMsgs++ // one batched transaction per switch
	}
	openflow.EachSwitch(len(ids), func() func(int) {
		return func(i int) {
			sw := c.Net.Switch(ids[i])
			p.At(ids[i]).Materialize(sw)
			sw.CompileDispatch()
		}
	})
	if !p.Transient {
		c.programs = append(c.programs, p)
	}
}

// Programs returns every program installed so far, in install order.
func (c *Controller) Programs() []*openflow.Program {
	return append([]*openflow.Program(nil), c.programs...)
}

// DropPrograms forgets installed programs covering the given slot; the
// deployment layer calls it when it uninstalls a service. The switches'
// state is not touched here — rule removal stays with the caller.
func (c *Controller) DropPrograms(slot int) {
	kept := c.programs[:0]
	for _, p := range c.programs {
		if !p.CoversSlot(slot) {
			kept = append(kept, p)
		}
	}
	c.programs = kept
}

// ResetState clears the state stores of the given state tables on every
// switch — one batched state-mod transaction per switch that has any of
// them, counted like an install message.
func (c *Controller) ResetState(tables ...int) {
	for id := 0; id < c.Net.NumSwitches(); id++ {
		sw := c.Net.Switch(id)
		touched := false
		for _, t := range tables {
			if st := sw.StateTableByID(t); st != nil && st.Len() > 0 {
				sw.ResetStateTable(t)
				touched = true
			}
		}
		if touched {
			c.Stats.InstallMsgs++
		}
	}
}

// ReadState reads one flow key's state from a state table on switch sw,
// as a state-stats request (counted as a runtime message pair).
func (c *Controller) ReadState(sw, table int, key uint64) (uint64, bool) {
	v, ok := c.Net.Switch(sw).StateValue(table, key)
	if ok {
		c.Stats.PacketOuts++ // request
		c.Stats.PacketIns++  // reply
	}
	return v, ok
}

// PacketOut injects a packet at a switch for pipeline processing, as if it
// had arrived on inPort (use openflow.PortController for "no port").
func (c *Controller) PacketOut(sw, inPort int, pkt *openflow.Packet, at network.Time) {
	c.Stats.PacketOuts++
	c.Stats.OutBandBytes += pkt.Size()
	c.Net.Inject(sw, inPort, pkt, at)
}

// PacketOutActions injects a packet with an explicit action list,
// bypassing the tables (how LLDP probes are sent in practice).
func (c *Controller) PacketOutActions(sw int, actions []openflow.Action, pkt *openflow.Packet, at network.Time) {
	c.Stats.PacketOuts++
	c.Stats.OutBandBytes += pkt.Size()
	c.Net.InjectActions(sw, actions, pkt, at)
}

// InjectHost injects in-band host traffic at a switch — ordinary data
// plane input, not a controller message, so it is not counted.
func (c *Controller) InjectHost(sw int, pkt *openflow.Packet, at network.Time) {
	c.Net.Inject(sw, openflow.PortController, pkt, at)
}

// RunNetwork drains the simulator's event queue.
func (c *Controller) RunNetwork() (int, error) { return c.Net.Run() }

// Now returns the current network time.
func (c *Controller) Now() network.Time { return c.Net.Sim.Now() }

// PortLive reports the liveness of a switch port, as the controller would
// know it from port-status messages.
func (c *Controller) PortLive(sw, port int) bool { return c.Net.Switch(sw).PortLive(port) }

// GroupCounter reads a group's round-robin pointer for diagnostics.
func (c *Controller) GroupCounter(sw int, id uint32) int {
	if v, ok := c.Net.Switch(sw).CounterValue(id); ok {
		return v
	}
	return -1
}

// ResetRuntimeStats zeroes the runtime counters, keeping the offline
// flow-mod/group-mod tally, so a measurement can isolate one request.
func (c *Controller) ResetRuntimeStats() {
	c.Stats.PacketOuts = 0
	c.Stats.PacketIns = 0
	c.Stats.OutBandBytes = 0
	c.ClearInbox()
}
