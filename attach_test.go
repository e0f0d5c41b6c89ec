package smartsouth

import (
	"reflect"
	"slices"
	"testing"

	"smartsouth/internal/core"
	"smartsouth/internal/openflow"
)

// TestRejectedInstallLeavesNoEntry: a service becomes visible only once
// its install succeeds. A rejected install leaves the metrics untouched
// and claims no EtherType, so the next valid install of the same service
// owns its EtherType, is credited with its traffic and names the tag
// decoder. The rejected install still uses up its slot.
func TestRejectedInstallLeavesNoEntry(t *testing.T) {
	cases := []struct {
		name string
		eth  uint16
		bad  func(d *Deployment) error
		good func(d *Deployment) (send func(), err error)
	}{
		{"anycast", core.EthAnycast,
			func(d *Deployment) error {
				_, err := d.InstallAnycast(map[uint32][]int{1: {99}})
				return err
			},
			func(d *Deployment) (func(), error) {
				ac, err := d.InstallAnycast(map[uint32][]int{1: {4}})
				if err != nil {
					return nil, err
				}
				return func() { ac.Send(0, 1, nil, 0) }, nil
			}},
		{"chaincast", core.EthChaincast,
			func(d *Deployment) error {
				_, err := d.InstallChaincast([][]int{{}})
				return err
			},
			func(d *Deployment) (func(), error) {
				cc, err := d.InstallChaincast([][]int{{4}})
				if err != nil {
					return nil, err
				}
				return func() { cc.Send(0, nil, 0) }, nil
			}},
	}
	for _, be := range []string{"of13", "stateful"} {
		for _, c := range cases {
			t.Run(be+"/"+c.name, func(t *testing.T) {
				d := Deploy(Ring(8), WithBackend(be))
				if _, err := d.InstallSnapshot(); err != nil {
					t.Fatal(err)
				}
				before := d.MetricsSnapshot()
				if err := c.bad(d); err == nil {
					t.Fatal("invalid install accepted")
				}
				if after := d.MetricsSnapshot(); !reflect.DeepEqual(after, before) {
					t.Fatalf("rejected install changed the metrics:\nbefore %+v\nafter  %+v", before, after)
				}
				send, err := c.good(d)
				if err != nil {
					t.Fatal(err)
				}
				send()
				if err := d.Run(); err != nil {
					t.Fatal(err)
				}
				ms := d.MetricsSnapshot()
				if len(ms) != 2 {
					t.Fatalf("%d entries, want snapshot and %s", len(ms), c.name)
				}
				m := ms[1]
				if m.Service != c.name || m.Slot != 2 {
					t.Errorf("entry %q at slot %d, want %q at slot 2 (slot 1 stays used by the rejected install)", m.Service, m.Slot, c.name)
				}
				if !slices.Equal(m.EtherTypes, []uint16{c.eth}) {
					t.Errorf("etherTypes %#x, want [%#x]", m.EtherTypes, c.eth)
				}
				if m.HostInjects != 1 || m.InBandMsgs == 0 || m.InBandMsgs != d.Net.InBandCount(c.eth) {
					t.Errorf("%d host injects, %d in-band msgs; want 1 and the network's %d",
						m.HostInjects, m.InBandMsgs, d.Net.InBandCount(c.eth))
				}
				p := d.Programs()[1]
				if m.InstallTxns != len(p.SwitchIDs()) || m.FlowMods != p.FlowCount() ||
					m.StateMods != p.StateCount() || m.GroupMods != p.GroupCount() {
					t.Errorf("install cost %d txns, %d/%d/%d flow/state/group mods; program has %d, %d/%d/%d",
						m.InstallTxns, m.FlowMods, m.StateMods, m.GroupMods,
						len(p.SwitchIDs()), p.FlowCount(), p.StateCount(), p.GroupCount())
				}
				if dec := d.Net.TagDecoder(c.eth); dec == nil || dec.Service() != c.name {
					t.Errorf("tag decoder of %#x is %v, want one for %q", c.eth, dec, c.name)
				}
			})
		}
	}
}

// TestDeclaredEtherTypesMatchRules: the EtherTypes a service declares are
// exactly those its installed rules match — an EtherType added to the
// rules but not declared would go unattributed.
func TestDeclaredEtherTypesMatchRules(t *testing.T) {
	installers := map[string]func(d *Deployment) error{
		"traversal": func(d *Deployment) error { _, err := d.InstallTraversal(); return err },
		"snapshot":  func(d *Deployment) error { _, err := d.InstallSnapshot(); return err },
		"snapsplit": func(d *Deployment) error { _, err := d.InstallSnapshotSplit(4); return err },
		"anycast": func(d *Deployment) error {
			_, err := d.InstallAnycast(map[uint32][]int{1: {5, 12}})
			return err
		},
		"priocast": func(d *Deployment) error {
			_, err := d.InstallPriocast(map[uint32][]PrioMember{1: {{Node: 5, Prio: 1}, {Node: 12, Prio: 2}}})
			return err
		},
		"blackhole-ttl": func(d *Deployment) error { _, err := d.InstallBlackholeTTL(); return err },
		"blackhole-ctr": func(d *Deployment) error { _, err := d.InstallBlackholeCounter(); return err },
		"pktloss":       func(d *Deployment) error { _, err := d.InstallPktLoss(nil); return err },
		"critical":      func(d *Deployment) error { _, err := d.InstallCritical(); return err },
		"chaincast": func(d *Deployment) error {
			_, err := d.InstallChaincast([][]int{{2, 5}, {7}, {1, 3}})
			return err
		},
		"loadmap": func(d *Deployment) error { _, err := d.InstallLoadMap(); return err },
		"portknock": func(d *Deployment) error {
			_, err := d.InstallPortKnock(10, []uint32{3, 1, 4})
			return err
		},
		"monitor": func(d *Deployment) error { _, err := d.InstallMonitor(0, true); return err },
	}
	for _, be := range []string{"of13", "stateful"} {
		for name, install := range installers {
			d := Deploy(Ring(20), WithBackend(be))
			if err := install(d); err != nil {
				t.Fatalf("%s/%s: %v", be, name, err)
			}
			m := d.MetricsSnapshot()[0]
			if m.Service != name {
				t.Errorf("%s/%s: entry names %q", be, name, m.Service)
			}
			var matched []uint16
			note := func(mt openflow.Match) {
				if eth := uint16(mt.EthType); mt.EthType != openflow.AnyEthType && !slices.Contains(matched, eth) {
					matched = append(matched, eth)
				}
			}
			for _, p := range d.Programs() {
				for _, sw := range p.SwitchIDs() {
					sp := p.At(sw)
					for _, fr := range sp.Flows {
						note(fr.Entry.Match)
					}
					for _, ts := range sp.States {
						for _, e := range ts.Entries {
							note(e.Match)
						}
					}
				}
			}
			declared := slices.Clone(m.EtherTypes)
			slices.Sort(declared)
			slices.Sort(matched)
			if !slices.Equal(declared, matched) {
				t.Errorf("%s/%s: declares EtherTypes %#x, its rules match %#x", be, name, declared, matched)
			}
		}
	}
}
