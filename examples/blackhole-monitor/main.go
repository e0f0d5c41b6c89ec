// Blackhole and packet-loss monitoring (§3.3): a silent failure is
// planted in a fat-tree fabric and localised twice — by the TTL
// binary-search detector and by the smart-counter detector — and a lossy
// link is caught by the per-port prime-sized counter pairs.
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
	fmt.Printf("fabric: 4-ary fat-tree, %d switches, %d links\n\n", g.NumNodes(), g.NumEdges())

	// --- Detector 1: TTL binary search -----------------------------------
	{
		d := smartsouth.Deploy(g)
		bh, err := d.InstallBlackholeTTL()
		if err != nil {
			log.Fatal(err)
		}
		// Plant a silent unidirectional failure on an aggregation-core
		// link: liveness still reports it up.
		hole := g.Edges()[5]
		if err := d.Net.SetBlackhole(hole.U, hole.V, false); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("== TTL binary search (planted: %d -> %d) ==\n", hole.U, hole.V)
		rep, err := bh.Locate(0, 0)
		if err != nil {
			log.Fatal(err)
		}
		if rep == nil {
			fmt.Println("  no blackhole found (unexpected!)")
		} else {
			fmt.Printf("  located: %v\n", rep)
		}
		fmt.Printf("  out-of-band messages: %d (≈ 2·log E)\n\n", d.Ctl.Stats.RuntimeMsgs())
	}

	// --- Detector 2: smart counters ---------------------------------------
	{
		d := smartsouth.Deploy(g)
		bh, err := d.InstallBlackholeCounter()
		if err != nil {
			log.Fatal(err)
		}
		hole := g.Edges()[5]
		if err := d.Net.SetBlackhole(hole.U, hole.V, false); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("== smart counters (planted: %d -> %d) ==\n", hole.U, hole.V)
		bh.Detect(0, 0, 0)
		if err := d.Run(); err != nil {
			log.Fatal(err)
		}
		rep, found, done := bh.Outcome()
		switch {
		case !done:
			fmt.Println("  detection inconclusive (checker swallowed) — controller would retry")
		case found:
			fmt.Printf("  located: %v\n", rep)
		default:
			fmt.Println("  network healthy")
		}
		fmt.Printf("  out-of-band messages: %d (constant: 2 triggers + 1 report)\n\n", d.Ctl.Stats.RuntimeMsgs())
	}

	// --- Packet-loss monitoring -------------------------------------------
	{
		d := smartsouth.Deploy(g)
		pl, err := d.InstallPktLoss(nil) // default primes 7, 11, 13
		if err != nil {
			log.Fatal(err)
		}
		// Exercise the fabric, losing exactly 5 packets on one link by
		// opening a temporary silent-drop window.
		e := g.Edges()[10]
		var at smartsouth.Time
		if err := d.Net.SetBlackhole(e.U, e.V, false); err != nil {
			log.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			pl.SendData(e.U, e.V, at)
			at += 100_000
		}
		if err := d.Run(); err != nil {
			log.Fatal(err)
		}
		if err := d.Net.SetLinkDown(e.U, e.V, false); err != nil {
			log.Fatal(err)
		}

		fmt.Printf("== packet-loss monitor (5 packets dropped on %d -> %d) ==\n", e.U, e.V)
		pl.Monitor(0, at+1_000_000)
		if err := d.Run(); err != nil {
			log.Fatal(err)
		}
		losses, done := pl.Reports()
		fmt.Printf("  monitor completed: %v\n", done)
		for _, r := range losses {
			fmt.Printf("  loss detected: packets from %d vanish before reaching %d (port %d)\n",
				r.Peer, r.Switch, r.Port)
		}
		if len(losses) == 0 {
			fmt.Println("  no loss reported")
		}
	}
}
