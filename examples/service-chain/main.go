// Service chaining (§3.2): a packet must traverse a firewall, then a DPI
// box, then reach an egress proxy — each role provided by a *group* of
// switches — without any controller involvement. The chaincast service
// performs one in-band anycast sweep per stage, surviving link failures
// between stages via fast failover.
package main

import (
	"fmt"
	"log"

	"smartsouth"
)

func main() {
	g, err := smartsouth.FatTree(4)
	if err != nil {
		log.Fatal(err)
	}
	// Roles: firewalls at two aggregation switches, DPI at a core switch,
	// egress proxies at two edge switches.
	firewalls := []int{5, 9}
	dpi := []int{1}
	proxies := []int{14, 18}
	roles := map[int]string{5: "firewall", 9: "firewall", 1: "dpi", 14: "proxy", 18: "proxy"}

	d := smartsouth.Deploy(g)
	cc, err := d.InstallChaincast([][]int{firewalls, dpi, proxies})
	if err != nil {
		log.Fatal(err)
	}

	d.OnDeliver(func(sw int, pkt *smartsouth.Packet) {
		fmt.Printf("  -> %s at switch %d processed the packet\n", roles[sw], sw)
	})

	fmt.Println("== chain firewall -> dpi -> proxy, healthy fabric ==")
	cc.Send(12, []byte("flow"), 0)
	if err := d.Run(); err != nil {
		log.Fatal(err)
	}

	fmt.Println("\n== firewall 5 isolated (all its links down) ==")
	for p := 1; p <= g.Degree(5); p++ {
		v, _, _ := g.Neighbor(5, p)
		if err := d.Net.SetLinkDown(5, v, true); err != nil {
			log.Fatal(err)
		}
	}
	cc.Send(12, []byte("flow-2"), d.Net.Sim.Now()+1)
	if err := d.Run(); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\nout-of-band messages for both chained flows: %d\n", d.Ctl.Stats.RuntimeMsgs())
	if errs := smartsouth.Errors(d.Verify()); len(errs) == 0 {
		fmt.Println("static verification of the installed chain: clean")
	} else {
		fmt.Printf("verification errors: %v\n", errs)
	}
}
