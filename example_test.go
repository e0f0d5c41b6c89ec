package smartsouth_test

import (
	"fmt"
	"sort"

	"smartsouth"
)

// ExampleDeployment_snapshot takes an in-band topology snapshot: one
// controller message in, one report out, everything else in the data
// plane.
func ExampleDeployment_snapshot() {
	g := smartsouth.Ring(5)
	d := smartsouth.Deploy(g)

	snap, err := d.InstallSnapshot()
	if err != nil {
		panic(err)
	}
	snap.Trigger(0, 0)
	if err := d.Run(); err != nil {
		panic(err)
	}
	res, err := snap.Collect()
	if err != nil {
		panic(err)
	}
	fmt.Printf("nodes=%d links=%d\n", len(res.Nodes), len(res.Edges))
	// Output: nodes=5 links=5
}

// ExampleDeployment_anycast delivers to the nearest group member with no
// controller interaction at all.
func ExampleDeployment_anycast() {
	g := smartsouth.Line(6)
	d := smartsouth.Deploy(g)

	a, err := d.InstallAnycast(map[uint32][]int{7: {4, 5}})
	if err != nil {
		panic(err)
	}
	d.OnDeliver(func(sw int, pkt *smartsouth.Packet) {
		fmt.Printf("delivered at %d: %s\n", sw, pkt.Payload)
	})
	a.Send(0, 7, []byte("hello"), 0)
	if err := d.Run(); err != nil {
		panic(err)
	}
	fmt.Printf("controller messages: %d\n", d.Ctl.Stats.RuntimeMsgs())
	// Output:
	// delivered at 4: hello
	// controller messages: 0
}

// ExampleDeployment_critical asks a switch whether it may be powered off.
func ExampleDeployment_critical() {
	g := smartsouth.Line(5) // node 2 is a cut vertex
	d := smartsouth.Deploy(g)

	cr, err := d.InstallCritical()
	if err != nil {
		panic(err)
	}
	for _, node := range []int{0, 2} {
		d.Ctl.ClearInbox()
		cr.Check(node, d.Net.Sim.Now()+1)
		if err := d.Run(); err != nil {
			panic(err)
		}
		crit, _ := cr.Verdict()
		fmt.Printf("node %d critical: %v\n", node, crit)
	}
	// Output:
	// node 0 critical: false
	// node 2 critical: true
}

// ExampleDeployment_blackhole locates a silent failure with three
// controller messages, wherever it hides.
func ExampleDeployment_blackhole() {
	g := smartsouth.Grid(3, 3)
	d := smartsouth.Deploy(g)

	bh, err := d.InstallBlackholeCounter()
	if err != nil {
		panic(err)
	}
	if err := d.Net.SetBlackhole(4, 5, false); err != nil {
		panic(err)
	}
	bh.Detect(0, 0, 0)
	if err := d.Run(); err != nil {
		panic(err)
	}
	rep, found, _ := bh.Outcome()
	ends := []int{rep.Switch, rep.Peer}
	sort.Ints(ends)
	fmt.Printf("found=%v link=%v controller-messages=%d\n", found, ends, d.Ctl.Stats.RuntimeMsgs())
	// Output: found=true link=[4 5] controller-messages=3
}
