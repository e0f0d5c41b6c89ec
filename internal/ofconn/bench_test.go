package ofconn

import (
	"net"
	"testing"

	"smartsouth/internal/openflow"
)

// BenchmarkInstallThroughput measures end-to-end flow-mod throughput over
// a real loopback TCP session (marshal + framing + parse + install).
func BenchmarkInstallThroughput(b *testing.B) {
	sw := openflow.NewSwitch(1, 8)
	ag := &Agent{SW: sw}
	l, addr := listenBench(b)
	defer l.Close()
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		_ = ag.Serve(c)
	}()
	cl, err := dial(addr)
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()

	f := openflow.Field{Off: 3, Bits: 9}
	e := &openflow.FlowEntry{
		Priority: 10, Match: openflow.MatchEth(0x8801).WithField(f, 7),
		Actions: []openflow.Action{openflow.SetField{F: f, Value: 1}, openflow.Output{Port: 2}},
		Goto:    openflow.NoGoto, Cookie: "bench",
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := installFlow(cl, 1, e); err != nil {
			b.Fatal(err)
		}
	}
	if err := cl.Barrier(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	if sw.FlowEntryCount() != b.N {
		b.Fatalf("installed %d of %d", sw.FlowEntryCount(), b.N)
	}
}

// BenchmarkBarrierRoundTrip measures the request/reply latency floor of
// the session.
func BenchmarkBarrierRoundTrip(b *testing.B) {
	sw := openflow.NewSwitch(1, 2)
	ag := &Agent{SW: sw}
	l, addr := listenBench(b)
	defer l.Close()
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		_ = ag.Serve(c)
	}()
	cl, err := dial(addr)
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cl.Barrier(); err != nil {
			b.Fatal(err)
		}
	}
}

func listenBench(b *testing.B) (net.Listener, string) {
	b.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	return l, l.Addr().String()
}
