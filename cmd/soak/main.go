// soak is the randomized chaos harness: every iteration builds a random
// topology from a random family, installs a random mix of SmartSouth
// services, injects random failures (link-down before the run, silent
// blackholes, mid-flight failures), runs the services and cross-checks
// every result against its graph-theoretic oracle. Any divergence aborts
// with a reproducible seed and a flight-recorder post-mortem: the JSONL
// dump's final records replay the failing traversal hop by hop with the
// decoded DFS tag state.
//
//	go run ./cmd/soak -iters 200
//	go run ./cmd/soak -seed 12345 -iters 1    # replay one iteration
//	go run ./cmd/soak -iters 50 -json         # machine-readable summary
//	go run ./cmd/soak -force-fail -iters 1    # exercise the failure path
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"os"
	"path/filepath"

	"smartsouth"
	"smartsouth/internal/topo"
	"smartsouth/internal/verify"
)

var (
	iters     = flag.Int("iters", 100, "iterations")
	backend   = flag.String("backend", "of13", "compile backend: of13 (tag-carried state) or stateful (switch state tables)")
	shards    = flag.Int("shards", 1, "event-loop shard count for every iteration's network (oracle checks are shard-invariant)")
	seed      = flag.Int64("seed", 1, "base seed (iteration i uses seed+i)")
	verbose   = flag.Bool("v", false, "log every iteration")
	jsonOut   = flag.Bool("json", false, "print a JSON summary instead of the one-line tally")
	serveAddr = flag.String("serve", "", "serve /metrics, /telemetry and /debug/pprof on this address while soaking")
	forceFail = flag.Bool("force-fail", false, "report a synthetic oracle divergence on every iteration (tests the failure path)")
	dumpDir   = flag.String("dump-dir", os.TempDir(), "directory for flight-recorder dumps of failed iterations ('' = no dumps)")
	timeline  = flag.String("timeline", "", "enable causal tracing and write each iteration's span timeline (Chrome trace-event JSON) to this path — overwritten per iteration, so after a failure it holds the failing traversal")
)

// iterFailure describes one failed iteration in the JSON summary.
type iterFailure struct {
	Seed       int64  `json:"seed"`
	Family     string `json:"family"`
	Error      string `json:"error"`
	FlightDump string `json:"flightDump,omitempty"`
}

// summary is the -json output: the tally plus everything needed to
// reproduce a failure (seed, family, dump path).
type summary struct {
	Iterations int            `json:"iterations"`
	Passed     int            `json:"passed"`
	Failed     int            `json:"failed"`
	Families   map[string]int `json:"families"`
	Failures   []iterFailure  `json:"failures,omitempty"`
}

func main() {
	flag.Parse()
	if *serveAddr != "" {
		addr, err := smartsouth.ServeTelemetry(*serveAddr)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("telemetry: serving http://%s/metrics\n", addr)
	}

	sum := summary{Families: map[string]int{}}
	exitCode := 0
	for i := 0; i < *iters; i++ {
		s := *seed + int64(i)
		family, dumpPath, err := runIteration(s, *forceFail, *dumpDir)
		sum.Iterations++
		sum.Families[family]++
		if err != nil {
			sum.Failed++
			sum.Failures = append(sum.Failures, iterFailure{
				Seed: s, Family: family, Error: err.Error(), FlightDump: dumpPath,
			})
			msg := fmt.Sprintf("FAIL seed=%d family=%s: %v", s, family, err)
			if dumpPath != "" {
				msg += fmt.Sprintf(" (flight dump: %s)", dumpPath)
			}
			fmt.Fprintln(os.Stderr, msg)
			exitCode = 1
			break
		}
		sum.Passed++
		if *verbose {
			log.Printf("seed=%d ok (%s)", s, family)
		}
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(sum); err != nil {
			log.Fatal(err)
		}
	} else {
		fmt.Printf("soak: %d/%d iterations passed\n", sum.Passed, sum.Iterations)
	}
	os.Exit(exitCode)
}

// writeFile creates path and fills it with write — one of the
// deployment's artifact writers (WriteTimeline, DumpFlight).
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func buildTopo(rng *rand.Rand) (*smartsouth.Graph, string) {
	n := 5 + rng.Intn(26)
	switch rng.Intn(5) {
	case 0:
		return topo.RandomConnected(n, rng.Intn(n), rng.Int63()), "random"
	case 1:
		side := 2 + rng.Intn(4)
		return topo.Grid(side, 2+rng.Intn(4)), "grid"
	case 2:
		return topo.BarabasiAlbert(n, 1+rng.Intn(3), rng.Int63()), "ba"
	case 3:
		return topo.Waxman(n, 0.3+rng.Float64()*0.4, 0.1+rng.Float64()*0.3, rng.Int63()), "waxman"
	default:
		return topo.Ring(3 + rng.Intn(20)), "ring"
	}
}

// runIteration executes one soak iteration. On divergence it marks the
// flight ring with a note and writes the post-mortem JSONL to dumpDir, so
// the FAIL line always points at a replayable trace.
func runIteration(s int64, forceFail bool, dumpDir string) (family, dumpPath string, err error) {
	rng := rand.New(rand.NewSource(s))
	g, family := buildTopo(rng)
	opts := []smartsouth.Option{smartsouth.WithSeed(s), smartsouth.WithBackend(*backend), smartsouth.WithShards(*shards)}
	if *timeline != "" {
		opts = append(opts, smartsouth.WithTimeline(0))
	}
	base := smartsouth.TelemetrySnapshot().FallbackLookups
	d := smartsouth.Deploy(g, opts...)
	err = oracles(d, g, rng, forceFail)
	// Under of13 every lookup must find its matcher in place (the stateful
	// backend's state tables have none and always report here).
	if moved := smartsouth.TelemetrySnapshot().FallbackLookups - base; err == nil && moved != 0 && d.BackendName() == "of13" {
		err = fmt.Errorf("%d flow-table lookups had to compile their matcher first: an install path skipped CompileDispatch", moved)
	}
	if *timeline != "" {
		if werr := writeFile(*timeline, d.WriteTimeline); werr != nil {
			fmt.Fprintf(os.Stderr, "soak: timeline write failed: %v\n", werr)
		}
	}
	if err != nil && dumpDir != "" {
		d.Net.FlightNote("soak oracle divergence: " + err.Error())
		p := filepath.Join(dumpDir, fmt.Sprintf("soak-flight-seed%d.jsonl", s))
		if werr := writeFile(p, d.DumpFlight); werr != nil {
			fmt.Fprintf(os.Stderr, "soak: flight dump failed: %v\n", werr)
		} else {
			dumpPath = p
		}
	}
	return family, dumpPath, err
}

// oracles installs the service mix, injects failures and cross-checks
// every result against its graph-theoretic oracle.
func oracles(d *smartsouth.Deployment, g *smartsouth.Graph, rng *rand.Rand, forceFail bool) error {
	n := g.NumNodes()

	snap, err := d.InstallSnapshot()
	if err != nil {
		return fmt.Errorf("install snapshot: %w", err)
	}
	member := rng.Intn(n)
	any, err := d.InstallAnycast(map[uint32][]int{1: {member}})
	if err != nil {
		return fmt.Errorf("install anycast: %w", err)
	}
	crit, err := d.InstallCritical()
	if err != nil {
		return fmt.Errorf("install critical: %w", err)
	}

	// Fail up to 2 random links before anything runs (keep the graph
	// connected or not — both are legal; oracles use the live view).
	// Surviving failures is an of13 property: its fast-failover groups
	// re-route at packet time, while the stateful lowering resolves the
	// port scan at compile time and has nothing to fail over to.
	dead := map[[2]int]bool{}
	failures := rng.Intn(3)
	if d.BackendName() == "stateful" {
		failures = 0
	}
	for k := failures; k > 0 && g.NumEdges() > 0; k-- {
		e := g.Edges()[rng.Intn(g.NumEdges())]
		if err := d.Net.SetLinkDown(e.U, e.V, true); err != nil {
			return err
		}
		dead[[2]int{e.U, e.V}] = true
	}
	isDead := func(u, p int) bool {
		v, _, _ := g.Neighbor(u, p)
		return dead[[2]int{u, v}] || dead[[2]int{v, u}]
	}

	// Static verification of the full install.
	if errs := verify.Errors(d.Verify()); len(errs) > 0 {
		return fmt.Errorf("verify: %v", errs[0])
	}
	if len(d.Programs()) != 3 {
		return fmt.Errorf("retained %d programs, want 3", len(d.Programs()))
	}

	// --- Snapshot from a random root, checked against reachability ----
	root := rng.Intn(n)
	res, _, err := smartsouth.Supervisor{}.SnapshotWithRetry(snap, root)
	if err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	reach := topo.Reachable(g, root, isDead)
	if len(res.Nodes) != len(reach) {
		return fmt.Errorf("snapshot nodes %d, reachable %d", len(res.Nodes), len(reach))
	}
	for _, e := range g.Edges() {
		want := reach[e.U] && reach[e.V] && !dead[[2]int{e.U, e.V}] && !dead[[2]int{e.V, e.U}]
		if res.HasEdge(e.U, e.V) != want {
			return fmt.Errorf("snapshot edge %d-%d presence=%v want %v", e.U, e.V, res.HasEdge(e.U, e.V), want)
		}
	}

	// The sweep just completed, so the flight ring now holds its final
	// hops — exactly what the forced divergence must leave behind.
	if forceFail {
		return fmt.Errorf("forced oracle divergence (-force-fail): snapshot root %d saw %d nodes", root, len(res.Nodes))
	}

	// --- Anycast delivered iff reachable -------------------------------
	src := rng.Intn(n)
	delivered := -1
	d.OnDeliver(func(sw int, _ *smartsouth.Packet) { delivered = sw })
	any.Send(src, 1, nil, d.Net.Sim.Now()+1)
	if err := d.Run(); err != nil {
		return fmt.Errorf("anycast run: %w", err)
	}
	if topo.Reachable(g, src, isDead)[member] {
		if delivered != member {
			return fmt.Errorf("anycast delivered at %d, want %d", delivered, member)
		}
	} else if delivered != -1 {
		return fmt.Errorf("anycast delivered at %d although unreachable", delivered)
	}

	// --- Criticality vs articulation-point oracle on the live graph ---
	node := rng.Intn(n)
	if reach[node] && node != root {
		// Only nodes in the root's component matter; build the live
		// subgraph oracle via brute force.
		liveCut := func(v int) bool {
			deadOrV := func(u, p int) bool {
				if isDead(u, p) || u == v {
					return true
				}
				w, _, _ := g.Neighbor(u, p)
				return w == v
			}
			start := root
			if start == v {
				return false
			}
			return len(topo.Reachable(g, start, deadOrV)) != len(reach)-1
		}
		d.Ctl.ClearInbox()
		got, _, err := smartsouth.Supervisor{}.CriticalWithRetry(crit, node)
		if err != nil {
			return fmt.Errorf("critical: %w", err)
		}
		// The service evaluates criticality from the node's own component;
		// compare within the root's component only when they share it.
		if topo.Reachable(g, node, isDead)[root] && got != liveCut(node) {
			return fmt.Errorf("critical(%d)=%v oracle=%v", node, got, liveCut(node))
		}
	}
	return nil
}
