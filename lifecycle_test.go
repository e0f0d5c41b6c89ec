package smartsouth

import (
	"reflect"
	"testing"

	"smartsouth/internal/openflow"
)

// lifecycleAnswers is what the end state of the install-path lifecycle
// must agree on with a fresh deployment of that end state: each service's
// answer and the in-band messages it took to get it.
type lifecycleAnswers struct {
	SnapNodes, SnapEdges, SnapHops int
	Found, Done                    bool
	DetectHops                     int
	DeliveredAt, AnycastHops       int
}

// TestInstallPathLifecycle walks a live deployment through every kind of
// install-side transaction — service installs, a batched group-only
// counter reset, an uninstall, a reinstall — and checks two things. Under
// of13 no lookup ever falls back off the compiled matcher: every
// transaction leaves every table compiled, though it recompiles only the
// tables it wrote. And the deployment it ends in answers exactly like a
// fresh deployment of that end state, message for message.
func TestInstallPathLifecycle(t *testing.T) {
	const root, sender, member, newMember = 0, 5, 17, 23
	g := RandomConnected(30, 15, 7)
	for _, backend := range []string{"of13", "stateful"} {
		t.Run(backend, func(t *testing.T) {
			deploy := func() (*Deployment, func(step string, f func()) int) {
				d := Deploy(g, WithBackend(backend))
				// ask runs one request to quiescence and returns its in-band
				// message count.
				ask := func(step string, f func()) int {
					t.Helper()
					d.CP.ClearInbox()
					before := d.Net.TotalInBand()
					f()
					if err := d.Run(); err != nil {
						t.Fatalf("%s: %v", step, err)
					}
					if backend == "of13" {
						var st openflow.ScanStats
						for i := 0; i < d.Net.NumSwitches(); i++ {
							st.Merge(d.Net.Switch(i).ScanStats())
						}
						if st.MatcherLookups == 0 || st.FallbackLookups != 0 {
							t.Fatalf("%s: %d lookups served by the matcher, %d fell back to the bucket scan",
								step, st.MatcherLookups, st.FallbackLookups)
						}
					}
					return d.Net.TotalInBand() - before
				}
				return d, ask
			}
			must := func(err error) {
				t.Helper()
				if err != nil {
					t.Fatal(err)
				}
			}
			soon := func(d *Deployment) Time { return d.Net.Sim.Now() + 1 }
			answers := func(d *Deployment, ask func(string, func()) int, snap *Snapshot, bh *BlackholeCounter, any *Anycast) lifecycleAnswers {
				t.Helper()
				var a lifecycleAnswers
				a.SnapHops = ask("snapshot", func() { snap.Trigger(root, soon(d)) })
				res, err := snap.Collect()
				if err != nil || res == nil {
					t.Fatalf("snapshot: %v %v", res, err)
				}
				a.SnapNodes, a.SnapEdges = len(res.Nodes), len(res.Edges)
				a.DetectHops = ask("detect", func() { bh.Detect(root, soon(d), 0) })
				_, a.Found, a.Done = bh.Outcome()
				a.DeliveredAt = -1
				d.OnDeliver(func(sw int, _ *Packet) { a.DeliveredAt = sw })
				a.AnycastHops = ask("anycast", func() { any.Send(sender, 1, nil, soon(d)) })
				return a
			}

			// The lived-in deployment.
			d, ask := deploy()
			snap, err := d.InstallSnapshot()
			must(err)
			any, err := d.InstallAnycast(map[uint32][]int{1: {member}})
			must(err)
			_, err = d.InstallPriocast(map[uint32][]PrioMember{2: {{Node: 7, Prio: 3}, {Node: 10, Prio: 9}}})
			must(err)
			_, err = d.InstallCritical()
			must(err)
			bh, err := d.InstallBlackholeCounter()
			must(err)
			first := answers(d, ask, snap, bh, any)
			if first.DeliveredAt != member {
				t.Fatalf("first anycast delivered at %d, want %d", first.DeliveredAt, member)
			}

			calls := d.Stats().InstallMsgs
			bh.ResetCounters()
			if got := d.Stats().InstallMsgs - calls; got != g.NumNodes() {
				t.Errorf("ResetCounters took %d install transactions, want one per switch (%d)", got, g.NumNodes())
			}
			again := ask("detect after reset", func() { bh.Detect(root, soon(d), 0) })
			if _, found, done := bh.Outcome(); found || !done || again != first.DetectHops {
				t.Errorf("detection after reset: found=%v done=%v in %d messages, want healthy in %d",
					found, done, again, first.DetectHops)
			}
			bh.ResetCounters()
			d.Uninstall(any.Prog.Slot)
			any, err = d.InstallAnycast(map[uint32][]int{1: {newMember}})
			must(err)
			lived := answers(d, ask, snap, bh, any)

			// The same end state, deployed fresh.
			f, askF := deploy()
			snapF, err := f.InstallSnapshot()
			must(err)
			_, err = f.InstallPriocast(map[uint32][]PrioMember{2: {{Node: 7, Prio: 3}, {Node: 10, Prio: 9}}})
			must(err)
			_, err = f.InstallCritical()
			must(err)
			bhF, err := f.InstallBlackholeCounter()
			must(err)
			anyF, err := f.InstallAnycast(map[uint32][]int{1: {newMember}})
			must(err)
			fresh := answers(f, askF, snapF, bhF, anyF)

			if !reflect.DeepEqual(lived, fresh) {
				t.Errorf("lived-in deployment answers %+v, fresh deployment of its end state %+v", lived, fresh)
			}
			if lived.DeliveredAt != newMember || lived.Found || !lived.Done ||
				lived.SnapNodes != g.NumNodes() || lived.SnapEdges != g.NumEdges() {
				t.Errorf("end-state answers wrong: %+v", lived)
			}
			if errs := d.VerifyErrors(); len(errs) != 0 {
				t.Errorf("lived-in deployment fails verification: %v", errs)
			}
		})
	}
}
