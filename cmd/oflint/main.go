// oflint statically analyzes compiled SmartSouth programs against a
// topology, without a controller or a simulator (verify.CheckDeployment):
// per-switch checks of the composed rules (gotos, groups, ports,
// shadowing), cross-service conflicts (overlapping matches, shadowing,
// slot/cookie/group collisions), symbolic reachability defects
// (forwarding loops, blackholes, dead rules) and, on request, the DFS
// traversal invariant.
//
// Programs are JSON dumps of the Program IR (internal/dump); produce
// them with `smartsouth -programs out.json` or by hand. The topology is
// either a generator spec or a JSON file:
//
//	oflint -topo ring:20 programs.json
//	oflint -topo topo.json -json -dead svc1.json svc2.json
//	oflint -topo line:4 -prove-dfs snapshot programs.json
//
// Exit status: 0 clean (warnings allowed), 1 usage/load error, 2 when
// any error-severity finding is reported.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"smartsouth/internal/core"
	"smartsouth/internal/dump"
	"smartsouth/internal/openflow"
	"smartsouth/internal/topo"
	"smartsouth/internal/verify"
)

var (
	topoSpec = flag.String("topo", "", "topology: generator spec (ring:20, line:5, star:8, tree:2x3, grid:4x4) or a JSON file")
	jsonOut  = flag.Bool("json", false, "print findings as JSON instead of text")
	dead     = flag.Bool("dead", false, "also report symbolically unreachable (dead) rules")
	proveDFS = flag.String("prove-dfs", "", "additionally prove the DFS traversal invariant for this service")
	maxState = flag.Int("max-states", 0, "symbolic state budget (0 = default)")
)

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "oflint: "+format+"\n", args...)
	os.Exit(1)
}

// parseTopo turns a -topo argument into a graph. A value naming an
// existing file (or ending in .json) is loaded as JSON; otherwise it is
// a generator spec name:size.
func parseTopo(spec string) (*topo.Graph, error) {
	if spec == "" {
		return nil, fmt.Errorf("missing -topo")
	}
	if _, err := os.Stat(spec); err == nil || strings.HasSuffix(spec, ".json") {
		raw, err := os.ReadFile(spec)
		if err != nil {
			return nil, err
		}
		var g topo.Graph
		if err := json.Unmarshal(raw, &g); err != nil {
			return nil, fmt.Errorf("%s: %w", spec, err)
		}
		return &g, nil
	}
	name, arg, _ := strings.Cut(spec, ":")
	dims := strings.Split(arg, "x")
	atoi := func(s string) int {
		n, err := strconv.Atoi(s)
		if err != nil || n <= 0 {
			fail("bad topology spec %q", spec)
		}
		return n
	}
	switch name {
	case "line":
		return topo.Line(atoi(arg)), nil
	case "ring":
		return topo.Ring(atoi(arg)), nil
	case "star":
		return topo.Star(atoi(arg)), nil
	case "tree":
		if len(dims) == 2 {
			return topo.Tree(atoi(dims[0]), atoi(dims[1])), nil
		}
		return topo.Tree(atoi(arg), 2), nil
	case "grid":
		if len(dims) == 2 {
			return topo.Grid(atoi(dims[0]), atoi(dims[1])), nil
		}
		return nil, fmt.Errorf("grid spec wants grid:RxC, got %q", spec)
	}
	return nil, fmt.Errorf("unknown topology spec %q (and no such file)", spec)
}

func loadPrograms(paths []string) ([]*openflow.Program, error) {
	var progs []*openflow.Program
	for _, path := range paths {
		raw, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		ps, err := dump.UnmarshalPrograms(raw)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		progs = append(progs, ps...)
	}
	return progs, nil
}

func main() {
	flag.Parse()
	if flag.NArg() == 0 {
		fail("no program files given (usage: oflint -topo ring:20 programs.json...)")
	}
	g, err := parseTopo(*topoSpec)
	if err != nil {
		fail("%v", err)
	}
	progs, err := loadPrograms(flag.Args())
	if err != nil {
		fail("%v", err)
	}

	opts := verify.Options{
		HostEthTypes:    []uint16{core.EthData},
		SlotTables:      core.SlotTables,
		SlotGroups:      core.SlotGroups,
		ReportDeadRules: *dead,
		MaxStates:       *maxState,
	}
	findings := verify.CheckDeployment(progs, g, opts)

	if *proveDFS != "" {
		var target *openflow.Program
		for _, p := range progs {
			if p.Service == *proveDFS {
				target = p
				break
			}
		}
		if target == nil {
			fail("no program named %q among the loaded files", *proveDFS)
		}
		findings = append(findings, verify.ProveDFS(target, g, opts)...)
	}

	if *jsonOut {
		if findings == nil {
			findings = []verify.Finding{} // clean run prints [], not null
		}
		out, err := json.MarshalIndent(findings, "", "  ")
		if err != nil {
			fail("%v", err)
		}
		fmt.Println(string(out))
	} else {
		for _, f := range findings {
			fmt.Println(f)
		}
		fmt.Printf("oflint: %d programs on %d switches: %d findings (%d errors, %d warnings)\n",
			len(progs), g.NumNodes(), len(findings),
			len(verify.Errors(findings)), len(verify.Warnings(findings)))
	}
	if len(verify.Errors(findings)) > 0 {
		os.Exit(2)
	}
}
