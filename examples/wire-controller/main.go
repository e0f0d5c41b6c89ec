// Wire controller: the same SmartSouth services, but with the control
// plane speaking binary OpenFlow 1.3 over real TCP sockets — one session
// per switch. Every flow-mod, group-mod, packet-out and packet-in in this
// example crosses a loopback TCP connection as wire bytes, demonstrating
// that the compiler emits nothing beyond standard OpenFlow.
package main

import (
	"fmt"
	"log"

	"smartsouth"
)

func main() {
	g := smartsouth.Grid(3, 4)
	d, err := smartsouth.DeployRemote(g)
	if err != nil {
		log.Fatal(err)
	}
	defer d.Close()

	snap, err := d.InstallSnapshot()
	if err != nil {
		log.Fatal(err)
	}
	crit, err := d.InstallCritical()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("installed 2 services over TCP: %d flow-mods, %d group-mods on the wire\n",
		d.Fabric.Stats.FlowMods, d.Fabric.Stats.GroupMods)

	snap.Trigger(0, 0)
	if err := d.Run(); err != nil {
		log.Fatal(err)
	}
	res, err := snap.Collect()
	if err != nil || res == nil {
		log.Fatalf("snapshot failed: %v %v", res, err)
	}
	fmt.Printf("snapshot over the wire: %d nodes, %d links (ground truth %d/%d)\n",
		len(res.Nodes), len(res.Edges), g.NumNodes(), g.NumEdges())

	d.Fabric.ClearInbox()
	crit.Check(5, d.Fabric.Now()+1)
	if err := d.Run(); err != nil {
		log.Fatal(err)
	}
	c, ok := crit.Verdict()
	fmt.Printf("criticality of switch 5 over the wire: critical=%v (ok=%v)\n", c, ok)

	fmt.Printf("total wire messages: %d packet-outs, %d packet-ins, %d bytes out-of-band\n",
		d.Fabric.Stats.PacketOuts, d.Fabric.Stats.PacketIns, d.Fabric.Stats.OutBandBytes)
}
