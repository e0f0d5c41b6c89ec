// Package monitor is the troubleshooting application the paper's
// introduction motivates: a controller-side daemon that composes the
// SmartSouth data-plane functions into a monitoring loop with minimal
// control-plane traffic.
//
// Each round costs O(1) out-of-band messages regardless of network size:
// one snapshot sweep (2 messages) is diffed against the previous round to
// emit topology events; when nodes or links disappear, a smart-counter
// blackhole round (3 messages) distinguishes silent failures from plain
// link-downs. Contrast with an out-of-band monitor, which needs O(E)
// probe messages per round and a control channel to every switch.
package monitor

import (
	"fmt"
	"sort"

	"smartsouth/internal/core"
	"smartsouth/internal/network"
	"smartsouth/internal/telemetry"
)

// EventKind classifies a topology change.
type EventKind int

const (
	// NodeLost: a switch present in the previous round is gone.
	NodeLost EventKind = iota
	// NodeRecovered: a switch reappeared.
	NodeRecovered
	// LinkLost: a link disappeared between rounds.
	LinkLost
	// LinkRecovered: a link reappeared.
	LinkRecovered
	// BlackholeFound: the watchdog located a silent failure.
	BlackholeFound
)

func (k EventKind) String() string {
	switch k {
	case NodeLost:
		return "node-lost"
	case NodeRecovered:
		return "node-recovered"
	case LinkLost:
		return "link-lost"
	case LinkRecovered:
		return "link-recovered"
	case BlackholeFound:
		return "blackhole-found"
	}
	return "?"
}

// Event is one detected change.
type Event struct {
	Kind  EventKind
	Round int
	// Node is set for node events; U/V for link events; Switch/Port for
	// blackhole reports.
	Node         int
	U, V         int
	Switch, Port int
}

func (e Event) String() string {
	switch e.Kind {
	case NodeLost, NodeRecovered:
		return fmt.Sprintf("round %d: %s %d", e.Round, e.Kind, e.Node)
	case LinkLost, LinkRecovered:
		return fmt.Sprintf("round %d: %s %d-%d", e.Round, e.Kind, e.U, e.V)
	default:
		return fmt.Sprintf("round %d: %s at switch %d port %d", e.Round, e.Kind, e.Switch, e.Port)
	}
}

// Monitor drives monitoring rounds over one network.
type Monitor struct {
	// Root is the switch the sweeps start from (the monitor needs
	// connectivity to this one switch only).
	Root int
	// Watchdog enables the blackhole round whenever the snapshot shrinks.
	Watchdog bool

	ctl   core.ControlPlane
	net   *network.Network // counts the rounds (Network.Telemetry)
	snap  *core.Snapshot
	bh    *core.BlackholeCounter
	super core.Supervisor

	round int
	prev  *core.Result
	// Events accumulates everything detected so far.
	Events []Event
}

// New installs the monitoring services on net through its control plane
// c: the snapshot at slotBase and, when the watchdog is enabled, the
// blackhole counter at slotBase+1. Install options — notably the compile
// backend — are passed through to both services. The monitor's series
// count on net.
func New(c core.ControlPlane, net *network.Network, slotBase, root int, watchdog bool, opts ...core.InstallOption) (*Monitor, error) {
	m := &Monitor{Root: root, Watchdog: watchdog, ctl: c, net: net}
	var err error
	if m.snap, err = core.InstallSnapshot(c, net.Graph, slotBase, opts...); err != nil {
		return nil, err
	}
	if watchdog {
		if m.bh, err = core.InstallBlackholeCounter(c, net.Graph, slotBase+1, opts...); err != nil {
			return nil, err
		}
	}
	return m, nil
}

type edgeKey struct{ a, b int }

func key(u, v int) edgeKey {
	if v < u {
		u, v = v, u
	}
	return edgeKey{u, v}
}

// Round runs one monitoring round and returns the events it produced.
func (m *Monitor) Round() ([]Event, error) {
	m.round++
	m.net.Tally(func(c *telemetry.Counters) { c.MonitorRounds++ })
	var events []Event
	defer func() { m.noteEvents(events) }()

	res, _, err := m.super.SnapshotWithRetry(m.snap, m.Root)
	if err != nil {
		// Every snapshot attempt was swallowed: a silent failure sits on
		// the sweep's own path. This is exactly the case the blackhole
		// watchdog exists for; without it the round fails.
		if !m.Watchdog || m.bh == nil {
			return nil, fmt.Errorf("monitor round %d: %w", m.round, err)
		}
		found, wErr := m.watchdogRound(&events)
		if wErr != nil {
			return events, wErr
		}
		if !found {
			return events, fmt.Errorf("monitor round %d: sweep lost and watchdog found nothing: %w", m.round, err)
		}
		m.Events = append(m.Events, events...)
		return events, nil
	}

	if m.prev != nil {
		events = append(events, m.diff(res)...)
	}
	shrunk := false
	for _, e := range events {
		if e.Kind == NodeLost || e.Kind == LinkLost {
			shrunk = true
		}
	}
	m.prev = res

	// Something disappeared: it may be a silent failure the snapshot's
	// fast-failover silently routed around. The watchdog's counter round
	// tells link-down (liveness already reflects it) apart from a
	// blackhole.
	if shrunk && m.Watchdog && m.bh != nil {
		if _, err := m.watchdogRound(&events); err != nil {
			return events, err
		}
	}

	m.Events = append(m.Events, events...)
	return events, nil
}

// watchdogRound runs one smart-counter blackhole detection and appends a
// BlackholeFound event when a silent failure is located.
func (m *Monitor) watchdogRound(events *[]Event) (found bool, err error) {
	m.net.Tally(func(c *telemetry.Counters) { c.MonitorWatchdog++ })
	m.bh.ResetCounters()
	m.ctl.ClearInbox()
	m.bh.Detect(m.Root, m.ctl.Now()+1, 0)
	if _, err := m.ctl.RunNetwork(); err != nil {
		return false, err
	}
	if rep, ok, done := m.bh.Outcome(); done && ok {
		*events = append(*events, Event{
			Kind: BlackholeFound, Round: m.round,
			Switch: rep.Switch, Port: rep.Port, U: rep.Switch, V: rep.Peer,
		})
		return true, nil
	}
	return false, nil
}

// noteEvents counts a round's events on the network's telemetry.
func (m *Monitor) noteEvents(events []Event) {
	if len(events) == 0 {
		return
	}
	m.net.Tally(func(c *telemetry.Counters) {
		c.MonitorEvents += uint64(len(events))
		for _, e := range events {
			if e.Kind == BlackholeFound {
				c.MonitorBlackholes++
			}
		}
	})
}

// diff compares the new snapshot with the previous one.
func (m *Monitor) diff(cur *core.Result) []Event {
	var events []Event
	for n := range m.prev.Nodes {
		if !cur.Nodes[n] {
			events = append(events, Event{Kind: NodeLost, Round: m.round, Node: n})
		}
	}
	for n := range cur.Nodes {
		if !m.prev.Nodes[n] {
			events = append(events, Event{Kind: NodeRecovered, Round: m.round, Node: n})
		}
	}
	prevEdges := map[edgeKey]bool{}
	for _, e := range m.prev.Edges {
		prevEdges[key(e.U, e.V)] = true
	}
	curEdges := map[edgeKey]bool{}
	for _, e := range cur.Edges {
		curEdges[key(e.U, e.V)] = true
	}
	for k := range prevEdges {
		if !curEdges[k] {
			events = append(events, Event{Kind: LinkLost, Round: m.round, U: k.a, V: k.b})
		}
	}
	for k := range curEdges {
		if !prevEdges[k] {
			events = append(events, Event{Kind: LinkRecovered, Round: m.round, U: k.a, V: k.b})
		}
	}
	sort.Slice(events, func(i, j int) bool {
		a, b := events[i], events[j]
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		if a.U != b.U {
			return a.U < b.U
		}
		return a.V < b.V
	})
	return events
}

// OutBandPerRound reports the constant control-plane price of one round.
func (m *Monitor) OutBandPerRound() string {
	if m.Watchdog {
		return "2 (snapshot) + 3 (watchdog, only on shrink)"
	}
	return "2 (snapshot)"
}
