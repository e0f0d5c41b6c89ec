// Package dump renders installed switch configurations as text — the
// operator-facing counterpart to package verify. Because every SmartSouth
// behaviour is an ordinary flow or group entry, the dump of a switch *is*
// the complete, inspectable specification of what it will do.
package dump

import (
	"fmt"
	"sort"
	"strings"

	"smartsouth/internal/metrics"
	"smartsouth/internal/openflow"
	"smartsouth/internal/trace"
)

// Switch renders one switch's tables and groups.
func Switch(sw *openflow.Switch) string {
	var b strings.Builder
	fmt.Fprintf(&b, "switch %d (%d ports, %d flows, %d groups, ~%d config bytes)\n",
		sw.ID, sw.NumPorts, sw.FlowEntryCount(), sw.GroupCount(), sw.ConfigBytes())

	for _, tid := range sw.TableIDs() {
		t := sw.Table(tid)
		fmt.Fprintf(&b, "  table %d (%d entries)\n", tid, t.Len())
		t.Each(func(e *openflow.FlowEntry, hits uint64) bool {
			gotoStr := ""
			if e.Goto != openflow.NoGoto {
				gotoStr = fmt.Sprintf(" goto:%d", e.Goto)
			}
			fmt.Fprintf(&b, "    [%5d] %s -> %s%s  #%s (hits %d)\n",
				e.Priority, e.Match, actionsString(e.Actions), gotoStr, e.Cookie, hits)
			return true
		})
	}

	groups := sw.Groups()
	if len(groups) > 0 {
		fmt.Fprintf(&b, "  groups (%d)\n", len(groups))
		for _, g := range groups {
			fmt.Fprintf(&b, "    group %d type=%s\n", g.ID, g.Type)
			for i, bk := range g.Buckets {
				watch := "always"
				if bk.WatchPort != openflow.WatchNone {
					watch = fmt.Sprintf("port %d", bk.WatchPort)
				}
				fmt.Fprintf(&b, "      bucket %d (watch %s): %s\n", i, watch, actionsString(bk.Actions))
			}
		}
	}
	return b.String()
}

// Summary renders a one-line-per-switch overview of many switches.
func Summary(switches []*openflow.Switch) string {
	var b strings.Builder
	type row struct {
		id, flows, groups, bytes int
	}
	rows := make([]row, 0, len(switches))
	for _, sw := range switches {
		rows = append(rows, row{sw.ID, sw.FlowEntryCount(), sw.GroupCount(), sw.ConfigBytes()})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].id < rows[j].id })
	for _, r := range rows {
		fmt.Fprintf(&b, "switch %3d: %4d flows, %4d groups, %7d bytes\n", r.id, r.flows, r.groups, r.bytes)
	}
	return b.String()
}

// Program renders a compiled (not necessarily installed) program: the
// declarative IR a service compiler emits before installation. The same
// inspectability argument applies one stage earlier — the program is the
// complete specification of what installing it will do.
func Program(p *openflow.Program) string {
	var b strings.Builder
	fmt.Fprintf(&b, "program %q slot %d (%d switches, %d flows, %d groups, ~%d config bytes)\n",
		p.Service, p.Slot, len(p.SwitchIDs()), p.FlowCount(), p.GroupCount(), p.Bytes())
	for _, id := range p.SwitchIDs() {
		sp := p.At(id)
		fmt.Fprintf(&b, "  switch %d (%d ports): %d flows, %d groups\n",
			id, sp.NumPorts, len(sp.Flows), len(sp.Groups))
		for _, fr := range sp.Flows {
			e := fr.Entry
			gotoStr := ""
			if e.Goto != openflow.NoGoto {
				gotoStr = fmt.Sprintf(" goto:%d", e.Goto)
			}
			fmt.Fprintf(&b, "    t%-2d [%5d] %s -> %s%s  #%s\n",
				fr.Table, e.Priority, e.Match, actionsString(e.Actions), gotoStr, e.Cookie)
		}
		for _, g := range sp.Groups {
			fmt.Fprintf(&b, "    group %d type=%s (%d buckets)\n", g.ID, g.Type, len(g.Buckets))
		}
	}
	return b.String()
}

// ProgramSummary renders a one-line-per-program overview: the installed
// service inventory as the control plane records it.
func ProgramSummary(ps []*openflow.Program) string {
	var b strings.Builder
	for _, p := range ps {
		fmt.Fprintf(&b, "slot %2d %-14q %3d switches, %5d flows, %4d groups,", p.Slot, p.Service, len(p.SwitchIDs()), p.FlowCount(), p.GroupCount())
		if n := p.StateCount(); n > 0 {
			fmt.Fprintf(&b, " %4d state entries,", n)
		}
		fmt.Fprintf(&b, " %7d bytes\n", p.Bytes())
	}
	return b.String()
}

// Trace renders retained hop-trace events, one line per pipeline
// execution, in sequence order.
func Trace(events []trace.Event) string {
	var b strings.Builder
	for _, e := range events {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// Metrics renders a per-service metrics snapshot as an aligned table plus
// (when present) the per-rule hit counters of each service.
func Metrics(snap []metrics.ServiceMetrics) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %4s %6s %6s %5s %8s %7s %7s %9s %10s\n",
		"service", "slot", "flows", "groups", "trig", "pktins", "inband", "ibytes", "outbytes", "wallclock")
	for _, m := range snap {
		fmt.Fprintf(&b, "%-14s %4d %6d %6d %5d %8d %7d %7d %9d %8dns\n",
			m.Service, m.Slot, m.FlowMods, m.GroupMods, m.TriggerPackets,
			m.PacketIns, m.InBandMsgs, m.InBandBytes, m.OutBandBytes, int64(m.WallClock))
	}
	for _, m := range snap {
		if len(m.RuleHits) == 0 && len(m.GroupHits) == 0 {
			continue
		}
		fmt.Fprintf(&b, "%s hits:\n", m.Service)
		b.WriteString(Hits(m.RuleHits, m.GroupHits))
	}
	return b.String()
}

// Hits renders rule-hit and group-bucket counters, skipping zero-hit
// entries (a deployed service's rule set is large; the interesting part
// is where packets actually went).
func Hits(rules []openflow.RuleHit, groups []openflow.GroupHit) string {
	var b strings.Builder
	for _, r := range rules {
		if r.Packets == 0 {
			continue
		}
		fmt.Fprintf(&b, "  sw %3d t%-3d [%5d] %-28s %6d pkts\n",
			r.Switch, r.Table, r.Priority, r.Cookie, r.Packets)
	}
	for _, g := range groups {
		if g.Packets == 0 {
			continue
		}
		fmt.Fprintf(&b, "  sw %3d group %d bucket %d %6d pkts\n",
			g.Switch, g.Group, g.Bucket, g.Packets)
	}
	return b.String()
}

func actionsString(acts []openflow.Action) string {
	if len(acts) == 0 {
		return "(none)"
	}
	parts := make([]string, len(acts))
	for i, a := range acts {
		parts[i] = a.String()
	}
	return strings.Join(parts, ", ")
}
