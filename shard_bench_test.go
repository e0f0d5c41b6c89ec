package smartsouth

import (
	"fmt"
	"testing"

	"smartsouth/internal/controller"
	"smartsouth/internal/core"
	"smartsouth/internal/network"
	"smartsouth/internal/topo"
)

// BenchmarkShardedSnapshot is the shard-count scaling curve: a fat-tree
// k=16 under a burst of concurrent splitting-snapshot traversals, swept
// across shard counts. The OF13 lowering carries all DFS state in the
// packet tag, so the traversals are mutually independent and the burst
// genuinely parallelizes across shard workers — one traversal alone is a
// serial packet walk no amount of sharding can speed up.
//
// The bench drives internal/network + controller + core directly, so it
// measures the engine alone. Wall-clock speedup at 8 shards requires
// GOMAXPROCS >= 8; on fewer cores those rows measure the sharding
// overhead instead. cmd/benchguard gates the 2-shard row against the
// 1-shard row through the ratio in BENCH_pr10.json: two shards may be no
// slower than one.
//
// Each iteration also samples the Table-2 invariant: a burst of T
// traversals must stay within T times the 4|E| per-sweep message bound.
func BenchmarkShardedSnapshot(b *testing.B) {
	g, err := topo.FatTree(16)
	if err != nil {
		b.Fatal(err)
	}
	const triggers = 64
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			net := network.New(g, network.Options{Shards: shards})
			c := controller.New(net)
			s, err := core.InstallSnapshotSplit(c, g, 0, 16)
			if err != nil {
				b.Fatal(err)
			}
			bound := triggers * 4 * g.NumEdges()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.ResetRuntimeStats()
				net.ResetAccounting()
				base := net.Sim.Now()
				for t := 0; t < triggers; t++ {
					s.Trigger((t*37)%g.NumNodes(), base+network.Time(t)*50)
				}
				if _, err := net.Run(); err != nil {
					b.Fatal(err)
				}
				if msgs := net.InBandCount(core.EthSnapSplit); msgs == 0 || msgs > bound {
					b.Fatalf("burst of %d sweeps used %d in-band msgs, bound %d", triggers, msgs, bound)
				}
			}
			b.ReportMetric(float64(g.NumNodes()), "switches")
			b.ReportMetric(float64(triggers), "sweeps/op")
		})
	}
}
