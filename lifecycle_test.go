package smartsouth

import (
	"reflect"
	"slices"
	"sync"
	"testing"

	"smartsouth/internal/core"
	"smartsouth/internal/dump"
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
			if errs := Errors(d.Verify()); len(errs) != 0 {
				t.Errorf("lived-in deployment fails verification: %v", errs)
			}
		})
	}
}

// frozenLists records every distinct action list a set of programs holds,
// next to a deep copy of it.
type frozenLists struct {
	refs  int // rules, transitions and buckets holding a non-empty list
	lists []struct{ live, was []openflow.Action }
}

func freezeLists(progs []*Program) *frozenLists {
	f := &frozenLists{}
	seen := map[*openflow.Action]bool{}
	add := func(list []openflow.Action) {
		if len(list) == 0 {
			return
		}
		f.refs++
		if !seen[&list[0]] {
			seen[&list[0]] = true
			f.lists = append(f.lists, struct{ live, was []openflow.Action }{list, slices.Clone(list)})
		}
	}
	for _, p := range progs {
		for _, id := range p.SwitchIDs() {
			sp := p.At(id)
			for _, r := range sp.Flows {
				add(r.Entry.Actions)
			}
			for _, ts := range sp.States {
				for _, e := range ts.Entries {
					add(e.Actions)
				}
			}
			for _, g := range sp.Groups {
				for _, b := range g.Buckets {
					add(b.Actions)
				}
			}
		}
	}
	return f
}

// rawSweep drives one snapshot traversal and one blackhole detection from
// root through nothing but the control plane and the programs' layouts —
// what a deployment that was handed compiled programs, not service
// handles, can do.
func rawSweep(d *Deployment, snap *Snapshot, bh *BlackholeCounter, root int) error {
	d.CP.ClearInbox()
	at := d.Net.Sim.Now() + 1
	d.CP.ResetState(append(snap.Prog.StateTables(), bh.Prog.StateTables()...)...)
	d.CP.PacketOut(root, openflow.PortController, snap.L.NewPacket(core.EthSnapshot), at)
	d.CP.PacketOut(root, openflow.PortController, bh.L.NewPacket(core.EthBlackhole), at+1)
	return d.Run()
}

// TestSharedActionListsAreImmutable: a Program is read-only after compile.
// Compiled programs share action lists between buckets and rules, bucket
// arrays between groups, and every switch a program is installed on holds
// the program's own rules — the switches of two deployments at once, here.
// Nothing downstream of the compiler may write to any of it: not an
// install (parallel across switches), not the sharded hop loop, not a
// counter reset, an uninstall or a reinstall, on either deployment. Run
// under -race, the concurrent readers of one rule would also trip on any
// writer. What the deployments do not share is runtime state: each one's
// hit counters read as if it had been alone.
func TestSharedActionListsAreImmutable(t *testing.T) {
	g := RandomConnected(30, 15, 7)
	for _, backend := range []string{"of13", "stateful"} {
		t.Run(backend, func(t *testing.T) {
			must := func(err error) {
				t.Helper()
				if err != nil {
					t.Fatal(err)
				}
			}
			d := Deploy(g, WithBackend(backend), WithShards(2))
			run := func(trigger func(at Time)) {
				d.CP.ClearInbox()
				trigger(d.Net.Sim.Now() + 1)
				if err := d.Run(); err != nil {
					t.Error(err)
				}
			}
			snap, err := d.InstallSnapshot()
			must(err)
			split, err := d.InstallSnapshotSplit(8)
			must(err)
			bh, err := d.InstallBlackholeCounter()
			must(err)
			any, err := d.InstallAnycast(map[uint32][]int{1: {17}})
			must(err)

			progs := d.Programs()
			frozen := freezeLists(progs)
			if backend == "of13" && len(frozen.lists)*2 > frozen.refs {
				t.Errorf("%d references to %d distinct action lists: the compiler is not sharing", frozen.refs, len(frozen.lists))
			}
			var dumps []string
			for _, p := range progs {
				dumps = append(dumps, dump.Program(p))
			}

			// The second life of the same programs: installed as they are on
			// an unsharded deployment, swept, uninstalled and reinstalled
			// (which is also how it resets its smart counters). Below, solo
			// lives that life again with nobody else running, for reference.
			secondLife := func(d *Deployment, progs []*Program) {
				for _, p := range progs {
					d.CP.InstallProgram(p)
				}
				for _, root := range []int{4, 11} {
					if err := rawSweep(d, snap, bh, root); err != nil {
						t.Error(err)
					}
					d.Uninstall(bh.Prog.Slot)
					d.Uninstall(any.Prog.Slot)
					for _, p := range progs {
						if p.Slot == bh.Prog.Slot || p.Slot == any.Prog.Slot {
							d.CP.InstallProgram(p)
						}
					}
				}
				if err := rawSweep(d, snap, bh, 20); err != nil {
					t.Error(err)
				}
			}
			twin := Deploy(g, WithBackend(backend))
			var lives sync.WaitGroup
			lives.Add(2)
			go func() {
				defer lives.Done()
				secondLife(twin, progs)
			}()
			go func() {
				defer lives.Done()
				run(func(at Time) { snap.Trigger(0, at) })
				run(func(at Time) { split.Trigger(3, at) })
				run(func(at Time) { bh.Detect(0, at, 0) })
				bh.ResetCounters()
				run(func(at Time) { bh.Detect(0, at, 0) })
				run(func(at Time) { any.Send(5, 1, nil, at) })
				d.Uninstall(any.Prog.Slot)
				any2, err := d.InstallAnycast(map[uint32][]int{1: {23}})
				if err != nil {
					t.Error(err)
					return
				}
				run(func(at Time) { any2.Send(5, 1, nil, at) })
				run(func(at Time) { snap.Trigger(9, at) })
			}()
			lives.Wait()

			for _, l := range frozen.lists {
				if !slices.Equal(l.live, l.was) {
					t.Errorf("shared action list changed after compile: %v, was %v", l.live, l.was)
				}
			}
			for i, p := range progs {
				if dump.Program(p) != dumps[i] {
					t.Errorf("program %q changed after compile", p.Service)
				}
			}

			solo := Deploy(g, WithBackend(backend))
			secondLife(solo, progs)
			for _, p := range progs {
				tr, tg := twin.HitCounters(p.Slot)
				sr, sg := solo.HitCounters(p.Slot)
				if !reflect.DeepEqual(tr, sr) || !reflect.DeepEqual(tg, sg) {
					t.Errorf("%s: the twin's hit counters differ from those of the same life lived alone", p.Service)
				}
				if dr, _ := d.HitCounters(p.Slot); p.Slot == snap.Prog.Slot && reflect.DeepEqual(tr, dr) {
					t.Errorf("%s: two deployments with different traffic report the same hit counters", p.Service)
				}
			}
		})
	}
}
