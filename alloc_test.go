package smartsouth

import (
	"runtime"
	"testing"

	"smartsouth/internal/core"
	"smartsouth/internal/openflow"
	"smartsouth/internal/topo"
)

// TestLookupZeroAllocOnTemplate pins the flow-table dispatch index's
// zero-allocation property against a real installed SmartSouth program
// (not a synthetic table): looking up a traversal packet in the snapshot
// template's entry table must not allocate, hit or miss.
func TestLookupZeroAllocOnTemplate(t *testing.T) {
	g := Ring(20)
	d := Deploy(g)
	if _, err := d.InstallSnapshot(); err != nil {
		t.Fatal(err)
	}
	sw := d.Net.Switch(0)
	pkt := openflow.NewPacket(core.EthSnapshot, core.NewLayout(g).TagBytes())
	pkt.InPort = 1

	tbl := sw.Table(0)
	if tbl.Lookup(pkt) == nil {
		t.Fatal("snapshot template has no table-0 entry for a traversal packet on port 1")
	}
	if avg := testing.AllocsPerRun(1000, func() { tbl.Lookup(pkt) }); avg != 0 {
		t.Errorf("Lookup (hit) allocates %.1f allocs/op, want 0", avg)
	}

	miss := openflow.NewPacket(0x7777, 4) // EtherType no service uses
	miss.InPort = 1
	if tbl.Lookup(miss) != nil {
		t.Fatal("unexpected match for foreign EtherType")
	}
	if avg := testing.AllocsPerRun(1000, func() { tbl.Lookup(miss) }); avg != 0 {
		t.Errorf("Lookup (miss) allocates %.1f allocs/op, want 0", avg)
	}
}

// TestColdInstallGarbageBudget bounds what a cold install throws away. A
// Deploy plus InstallSnapshot on ISP(100,20) under of13 (the
// BenchmarkColdDeploy topology) may allocate at most 10 % more than it
// leaves live: garbage is the allocation beyond the heap growth that
// survives a collection. Collecting twice on each side drains the
// process pools, so the install starts cold and its pooled compile
// scratch counts as garbage, not as retained.
func TestColdInstallGarbageBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's own allocations skew the heap accounting")
	}
	g, err := topo.ISP(100, 20, 1)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	d := Deploy(g, WithBackend("of13"))
	if _, err := d.InstallSnapshot(); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(d)
	allocated := int64(after.TotalAlloc - before.TotalAlloc)
	retained := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	garbage := allocated - retained
	const mb = 1 << 20
	t.Logf("allocated %.1f MB, retained %.1f MB, garbage %.1f MB (%.1f %%)",
		float64(allocated)/mb, float64(retained)/mb, float64(garbage)/mb, 100*float64(garbage)/float64(retained))
	if garbage*10 > retained {
		t.Errorf("a cold install left %.1f MB of garbage for %.1f MB retained, want at most 10 %%",
			float64(garbage)/mb, float64(retained)/mb)
	}
}
