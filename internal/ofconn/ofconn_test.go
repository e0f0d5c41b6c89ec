package ofconn

import (
	"net"
	"sync"
	"testing"
	"time"

	"smartsouth/internal/controller"
	"smartsouth/internal/core"
	"smartsouth/internal/network"
	"smartsouth/internal/ofwire"
	"smartsouth/internal/openflow"
	"smartsouth/internal/topo"
)

// tcpPair returns two connected TCP endpoints on loopback. (net.Pipe is
// unusable here: the handshake is write-first on both sides and the pipe
// is unbuffered, so both peers would block in the write.)
func tcpPair(t *testing.T) (net.Conn, net.Conn) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	type res struct {
		c   net.Conn
		err error
	}
	ch := make(chan res, 1)
	go func() {
		c, err := l.Accept()
		ch <- res{c, err}
	}()
	a, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	r := <-ch
	if r.err != nil {
		t.Fatal(r.err)
	}
	t.Cleanup(func() { a.Close(); r.c.Close() })
	return a, r.c
}

// dial connects to a switch agent over TCP and starts the session.
func dial(addr string) (*Client, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	cl := NewClient(c)
	if err := cl.Start(); err != nil {
		c.Close()
		return nil, err
	}
	return cl, nil
}

// installFlow and installGroup send one FLOW_MOD or GROUP_MOD, as an
// outside controller does; the fabric sends batches (InstallBatch).
func installFlow(cl *Client, table int, e *openflow.FlowEntry) error {
	msg, err := ofwire.MarshalFlowMod(cl.conn.NextXID(), table, e)
	if err != nil {
		return err
	}
	return cl.conn.Send(msg)
}

func installGroup(cl *Client, g *openflow.GroupEntry) error {
	msg, err := ofwire.MarshalGroupMod(cl.conn.NextXID(), g)
	if err != nil {
		return err
	}
	return cl.conn.Send(msg)
}

// echoRequest builds an OFPT_ECHO_REQUEST: an echo reply with the
// header's type byte set to the request.
func echoRequest(xid uint32, payload []byte) []byte {
	msg := ofwire.EchoReply(xid, payload)
	msg[1] = ofwire.TypeEchoRequest
	return msg
}

func TestHandshakeAndEcho(t *testing.T) {
	a, b := tcpPair(t)

	errc := make(chan error, 1)
	go func() {
		ca := New(a)
		if err := ca.Handshake(); err != nil {
			errc <- err
			return
		}
		// Serve one echo.
		h, body, err := ca.Recv()
		if err != nil {
			errc <- err
			return
		}
		if h.Type != ofwire.TypeEchoRequest {
			errc <- err
			return
		}
		errc <- ca.Send(ofwire.EchoReply(h.XID, body))
	}()

	cb := New(b)
	if err := cb.Handshake(); err != nil {
		t.Fatal(err)
	}
	if err := cb.Send(echoRequest(cb.NextXID(), []byte("hi"))); err != nil {
		t.Fatal(err)
	}
	h, body, err := cb.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if h.Type != ofwire.TypeEchoReply || string(body) != "hi" {
		t.Fatalf("echo reply: %+v %q", h, body)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
}

func TestHandshakeRejectsWrongVersion(t *testing.T) {
	a, b := tcpPair(t)
	go func() {
		// A peer speaking version 1 (OpenFlow 1.0).
		msg := ofwire.Hello(1)
		msg[0] = 0x01
		b.Write(msg)
		// Drain our hello.
		buf := make([]byte, 16)
		b.Read(buf)
	}()
	if err := New(a).Handshake(); err == nil {
		t.Fatal("version mismatch accepted")
	}
}

// agentRig starts a TCP listener backed by an Agent for the switch.
func agentRig(t *testing.T, ag *Agent) (addr string, stop func()) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c, err := l.Accept()
		if err != nil {
			return
		}
		_ = ag.Serve(c)
	}()
	return l.Addr().String(), func() { l.Close(); wg.Wait() }
}

func TestAgentInstallsAndFeatures(t *testing.T) {
	sw := openflow.NewSwitch(7, 4)
	ag := &Agent{SW: sw}
	addr, stop := agentRig(t, ag)
	defer stop()

	cl, err := dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if cl.features.DatapathID != 7 {
		t.Errorf("datapath id = %d", cl.features.DatapathID)
	}

	f := openflow.Field{Off: 3, Bits: 5}
	e := &openflow.FlowEntry{
		Priority: 42,
		Match:    openflow.MatchEth(0x8801).WithInPort(2).WithField(f, 9),
		Actions:  []openflow.Action{openflow.SetField{F: f, Value: 3}, openflow.Output{Port: 1}},
		Goto:     5, Cookie: "tcp-rule",
	}
	if err := installFlow(cl, 1, e); err != nil {
		t.Fatal(err)
	}
	if err := installGroup(cl, &openflow.GroupEntry{ID: 3, Type: openflow.GroupFF,
		Buckets: []openflow.Bucket{{WatchPort: 1, Actions: []openflow.Action{openflow.Output{Port: 1}}}}}); err != nil {
		t.Fatal(err)
	}
	if err := cl.Barrier(); err != nil {
		t.Fatal(err)
	}
	// The barrier guarantees the installs are applied.
	if sw.FlowEntryCount() != 1 || sw.GroupCount() != 1 {
		t.Fatalf("switch has %d flows %d groups", sw.FlowEntryCount(), sw.GroupCount())
	}
	got := sw.Table(1).Entries()[0]
	if got.Priority != 42 || got.Goto != 5 || got.Match.InPort != 2 {
		t.Fatalf("installed entry: %v", got)
	}
}

// TestLoneFlowModIsServedByTheMatcher: a single FLOW_MOD outside any batch
// must not leave its table without a compiled matcher — the packet after
// the barrier is a matcher lookup, not an inline compile.
func TestLoneFlowModIsServedByTheMatcher(t *testing.T) {
	sw := openflow.NewSwitch(1, 2)
	addr, stop := agentRig(t, &Agent{SW: sw})
	defer stop()
	cl, err := dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	e := &openflow.FlowEntry{Priority: 5, Match: openflow.MatchEth(0x8801),
		Actions: []openflow.Action{openflow.Output{Port: 2}}, Goto: openflow.NoGoto, Cookie: "lone"}
	if err := installFlow(cl, 0, e); err != nil {
		t.Fatal(err)
	}
	if err := cl.Barrier(); err != nil {
		t.Fatal(err)
	}
	before := sw.ScanStats()
	res := sw.Receive(openflow.NewPacket(0x8801, 1), 1)
	sw.Table(0).Each(func(got *openflow.FlowEntry, hits uint64) bool {
		if !res.Matched || got.Priority != 5 || hits != 1 {
			t.Fatalf("packet did not hit the wire-installed entry %v (%d hits): %+v", got, hits, res)
		}
		return false
	})
	after := sw.ScanStats()
	if after.MatcherLookups != before.MatcherLookups+1 || after.FallbackLookups != before.FallbackLookups {
		t.Fatalf("lookup after a lone FLOW_MOD: stats %+v -> %+v, want one matcher lookup", before, after)
	}
}

func TestAgentPacketOutAndPacketIn(t *testing.T) {
	sw := openflow.NewSwitch(1, 2)
	var mu sync.Mutex
	var injected []*openflow.Packet
	ag := &Agent{SW: sw, Inject: func(inPort int, actions []openflow.Action, pkt *openflow.Packet) {
		mu.Lock()
		injected = append(injected, pkt)
		mu.Unlock()
	}}
	addr, stop := agentRig(t, ag)
	defer stop()

	cl, err := dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	pkt := openflow.NewPacket(0x8802, 6)
	pkt.PushLabel(0x99)
	pkt.Payload = []byte("pp")
	if err := cl.PacketOut(openflow.PortController, nil, pkt); err != nil {
		t.Fatal(err)
	}
	if err := cl.Barrier(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	n := len(injected)
	mu.Unlock()
	if n != 1 {
		t.Fatalf("injected %d packets", n)
	}

	// Packet-in the other way.
	if err := ag.SendPacketIn(2, pkt); err != nil {
		t.Fatal(err)
	}
	select {
	case pi := <-cl.PacketIns():
		if pi.InPort != 2 || pi.Pkt.EthType != 0x8802 || len(pi.Pkt.Labels) != 1 {
			t.Fatalf("packet-in %+v", pi)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("packet-in timed out")
	}
}

// TestAgentSurvivesMalformedMessage: a bad flow-mod must produce an
// OFPT_ERROR (surfaced via Client.Err) without killing the session.
func TestAgentSurvivesMalformedMessage(t *testing.T) {
	sw := openflow.NewSwitch(1, 2)
	ag := &Agent{SW: sw}
	addr, stop := agentRig(t, ag)
	defer stop()
	cl, err := dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// A flow-mod whose body parses but whose command is DELETE
	// (unsupported here): the agent replies with OFPT_ERROR, then the
	// session must keep working for a good install.
	e := &openflow.FlowEntry{Priority: 1, Match: openflow.MatchAll(), Goto: openflow.NoGoto}
	bad, _ := ofwire.MarshalFlowMod(2, 0, e)
	bad[ofwire.HeaderLen+17] = 3 // OFPFC_DELETE
	if err := cl.conn.Send(bad); err != nil {
		t.Fatal(err)
	}
	if err := installFlow(cl, 0, e); err != nil {
		t.Fatal(err)
	}
	if err := cl.Barrier(); err != nil {
		t.Fatal(err)
	}
	if sw.FlowEntryCount() != 1 {
		t.Fatalf("flows = %d, want 1 (bad mod rejected, good applied)", sw.FlowEntryCount())
	}
	if cl.Err() == nil {
		t.Error("error report from switch not surfaced")
	}
}

// TestFlowStatsOverTCP: the controller reads rule-hit counters through a
// flow-stats multipart round trip.
func TestFlowStatsOverTCP(t *testing.T) {
	sw := openflow.NewSwitch(1, 2)
	sw.AddFlow(3, &openflow.FlowEntry{Priority: 7, Match: openflow.MatchAll(),
		Goto: openflow.NoGoto, Actions: []openflow.Action{openflow.Output{Port: 1}}, Cookie: "hot"})
	// Generate 4 hits locally.
	for i := 0; i < 4; i++ {
		sw.Receive(openflow.NewPacket(1, 1), 2)
	}
	// No hits: packets start at table 0 which is empty… install a feeder.
	sw.AddFlow(0, &openflow.FlowEntry{Priority: 1, Match: openflow.MatchAll(), Goto: 3, Cookie: "feed"})
	for i := 0; i < 4; i++ {
		sw.Receive(openflow.NewPacket(1, 1), 2)
	}

	ag := &Agent{SW: sw}
	addr, stop := agentRig(t, ag)
	defer stop()
	cl, err := dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	stats, err := cl.FlowStats(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 1 || stats[0].Packets != 4 || stats[0].Priority != 7 ||
		stats[0].Cookie != openflow.CookieHash("hot") {
		t.Fatalf("stats = %+v", stats)
	}
	// Empty table: empty stats, no error.
	empty, err := cl.FlowStats(9)
	if err != nil || len(empty) != 0 {
		t.Fatalf("empty table stats: %v %v", empty, err)
	}
}

// TestSmartSouthOverTCP is the end-to-end proof: compile a real SmartSouth
// traversal, stream every flow and group entry to TCP agents as binary
// OpenFlow, trigger the service with a wire packet-out, and receive the
// completion report as a wire packet-in. The wire-installed network must
// behave identically to a directly-installed one.
func TestSmartSouthOverTCP(t *testing.T) {
	g := topo.RandomConnected(8, 5, 4)

	// Reference: direct installation.
	refNet := network.New(g, network.Options{})
	refCtl := controller.New(refNet)
	refTr, err := core.InstallTraversal(refCtl, g, 0)
	if err != nil {
		t.Fatal(err)
	}
	var refHops []network.Hop
	refNet.ObserveHops(func(h network.Hop, _ *openflow.Packet, _ bool) { refHops = append(refHops, h) })
	refTr.Trigger(0, 0)
	if _, err := refNet.Run(); err != nil {
		t.Fatal(err)
	}

	// Target: a fresh network whose switches are configured exclusively
	// over TCP. The compiled rules are read out of the reference switches
	// and replayed through the wire.
	tcpNet := network.New(g, network.Options{})
	var mu sync.Mutex
	type pending struct {
		sw     int
		inPort int
		pkt    *openflow.Packet
	}
	var queue []pending

	agents := make([]*Agent, g.NumNodes())
	clients := make([]*Client, g.NumNodes())
	var stops []func()
	for i := 0; i < g.NumNodes(); i++ {
		i := i
		agents[i] = &Agent{
			SW: tcpNet.Switch(i),
			Inject: func(inPort int, actions []openflow.Action, pkt *openflow.Packet) {
				mu.Lock()
				queue = append(queue, pending{sw: i, inPort: inPort, pkt: pkt})
				mu.Unlock()
			},
		}
		addr, stop := agentRig(t, agents[i])
		stops = append(stops, stop)
		cl, err := dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		clients[i] = cl
	}
	defer func() {
		for _, cl := range clients {
			cl.Close()
		}
		for _, s := range stops {
			s()
		}
	}()

	// Stream the compiled configuration.
	for i := 0; i < g.NumNodes(); i++ {
		src := refNet.Switch(i)
		for _, tid := range src.TableIDs() {
			for _, e := range src.Table(tid).Entries() {
				if err := installFlow(clients[i], tid, e); err != nil {
					t.Fatal(err)
				}
			}
		}
		for _, grp := range src.Groups() {
			if err := installGroup(clients[i], grp); err != nil {
				t.Fatal(err)
			}
		}
		if err := clients[i].Barrier(); err != nil {
			t.Fatal(err)
		}
	}

	// Trigger over the wire at switch 0.
	l := core.NewLayout(g)
	trigger := l.NewPacket(core.EthTraversal)
	if err := clients[0].PacketOut(openflow.PortController, nil, trigger); err != nil {
		t.Fatal(err)
	}
	if err := clients[0].Barrier(); err != nil {
		t.Fatal(err)
	}

	// Drain the packet-out queue into the simulator and run.
	var tcpHops []network.Hop
	tcpNet.ObserveHops(func(h network.Hop, _ *openflow.Packet, _ bool) { tcpHops = append(tcpHops, h) })
	reports := 0
	tcpNet.OnPacketIn = func(sw int, pkt *openflow.Packet) {
		reports++
		// Forward the report to the controller over the wire.
		if err := agents[sw].SendPacketIn(pkt.InPort, pkt); err != nil {
			t.Errorf("packet-in relay: %v", err)
		}
	}
	mu.Lock()
	for _, p := range queue {
		tcpNet.Inject(p.sw, p.inPort, p.pkt, 0, network.PacketOut)
	}
	mu.Unlock()
	if _, err := tcpNet.Run(); err != nil {
		t.Fatal(err)
	}

	// The wire-configured data plane must walk exactly the same hops.
	if len(tcpHops) != len(refHops) {
		t.Fatalf("tcp run: %d hops, direct run: %d", len(tcpHops), len(refHops))
	}
	for i := range tcpHops {
		if tcpHops[i] != refHops[i] {
			t.Fatalf("hop %d differs: %v vs %v", i, tcpHops[i], refHops[i])
		}
	}
	if reports != 1 {
		t.Fatalf("completion reports = %d", reports)
	}
	// And the completion report arrives at the controller as a wire
	// packet-in.
	select {
	case pi := <-clients[0].PacketIns():
		if pi.Pkt.EthType != core.EthTraversal {
			t.Fatalf("unexpected packet-in %+v", pi)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no packet-in over the wire")
	}
}
