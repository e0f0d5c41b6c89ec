// In-band controller failover: the paper's §3.2 motivating scenario for
// priocast. A distributed control plane runs controller instances at
// several switches with different preference levels. When a switch loses
// its management connection, it uses priocast to reach the *best still
// reachable* controller entirely in-band — no topology knowledge, no
// controller help, surviving link failures along the way.
package main

import (
	"fmt"
	"log"

	"smartsouth"
)

func main() {
	// A 4x4 grid fabric. Controller instances are co-located with
	// switches 0 (primary, priority 9), 12 (secondary, 5) and 15
	// (tertiary, 2).
	g := smartsouth.Grid(4, 4)
	d := smartsouth.Deploy(g)

	const ctlGroup = 100
	prio, err := d.InstallPriocast(map[uint32][]smartsouth.PrioMember{
		ctlGroup: {
			{Node: 0, Prio: 9},
			{Node: 12, Prio: 5},
			{Node: 15, Prio: 2},
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	d.OnDeliver(func(sw int, pkt *smartsouth.Packet) {
		fmt.Printf("  -> controller instance at switch %d received %q\n", sw, pkt.Payload)
	})

	// Scenario 1: switch 6 lost its management port and asks for *any*
	// controller, best first.
	fmt.Println("== switch 6 reaches the control plane in-band ==")
	prio.Send(6, ctlGroup, []byte("flow-request from 6"), 0)
	if err := d.Run(); err != nil {
		log.Fatal(err)
	}

	// Scenario 2: the primary controller's region is cut off. Priocast
	// falls back to the best reachable instance, with zero controller
	// messages and no reconfiguration.
	fmt.Println("\n== isolating the primary controller (cutting links around switch 0) ==")
	for _, nb := range []int{1, 4} {
		if err := d.Net.SetLinkDown(0, nb, true); err != nil {
			log.Fatal(err)
		}
	}
	prio.Send(6, ctlGroup, []byte("flow-request after partition"), d.Net.Sim.Now()+1)
	if err := d.Run(); err != nil {
		log.Fatal(err)
	}

	// Scenario 3: secondary also gone — tertiary picks up.
	fmt.Println("\n== also isolating the secondary (switch 12) ==")
	for _, nb := range []int{8, 13} {
		if err := d.Net.SetLinkDown(12, nb, true); err != nil {
			log.Fatal(err)
		}
	}
	prio.Send(6, ctlGroup, []byte("flow-request, twice degraded"), d.Net.Sim.Now()+1)
	if err := d.Run(); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\nout-of-band messages used for all three requests: %d (priocast is fully in-band)\n",
		d.Ctl.Stats.RuntimeMsgs())
}
