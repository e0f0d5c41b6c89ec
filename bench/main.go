// Command bench is the repository's benchmark: five closed-loop workloads
// that drive the simulator from deploy to collect through the calls users
// make, check every answer against an oracle, and report named end-to-end
// metrics (untraced) and an outside-in per-layer ledger (traced). See
// README.md in this directory for the glossary and BENCHMARK.json at the
// repository root for the contract.
//
//	go run ./bench                               every workload, untraced then traced
//	go run ./bench -workload deploy-240          one workload, both modes
//	go run ./bench -workload scale-10k -trace 1  one traced run
//	go run ./bench -repeat 10                    the stability check
//
// Nothing in the program knows it is being measured: every number is taken
// by timing calls into public functions, reading public counters, or
// replaying recorded inputs against a layer's public entry point.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    int // 0 untraced, 1 traced, -1 both (suite mode only)
	quick    bool
	out      string
	repeat   int
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line a run ends with.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// resultFile is what a run leaves under the output directory: the result,
// where it came from, and the notes printed beside it.
type resultFile struct {
	Workload string      `json:"workload"`
	Traced   bool        `json:"traced"`
	Quick    bool        `json:"quick,omitempty"`
	Seconds  float64     `json:"seconds"`
	Env      environment `json:"env"`
	Result   result      `json:"result"`
	Notes    []string    `json:"notes,omitempty"`
}

// run is the state one workload run accumulates.
type run struct {
	cfg  config
	name string
	tr   *tracer // nil on an untraced run

	attempted, failed int
	firstErr          error
	vals              map[string]float64
	notes             []string
}

func (r *run) traced() bool { return r.tr != nil }

func (r *run) set(name string, v float64) { r.vals[name] = v }

func (r *run) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// book adds a measured section's ops to the run's tally.
func (r *run) book(o *opTimer) {
	r.attempted += o.attempted
	r.failed += o.failed
	if r.firstErr == nil {
		r.firstErr = o.firstErr
	}
}

// fail records a failed check that is not one op's answer (a count that did
// not repeat, a traced run that disagrees with the untraced one).
func (r *run) fail(err error) {
	r.attempted++
	r.failed++
	if r.firstErr == nil {
		r.firstErr = err
	}
}

// pick returns full unless -quick asked for the tier-1 test size.
func (r *run) pick(full, quick int) int {
	if r.cfg.quick {
		return quick
	}
	return full
}

// runWorkload executes one workload in this process.
func runWorkload(cfg config) (*run, result, error) {
	w := findWorkload(cfg.workload)
	if w == nil {
		return nil, result{}, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	r := &run{cfg: cfg, name: w.Name, vals: map[string]float64{}}
	defs := endToEnd
	if cfg.trace == 1 {
		r.tr = newTracer()
		defs = perLayer
	}
	steal0 := stolen()
	if err := w.run(r); err != nil {
		return r, result{}, err
	}
	if ticks := stolen() - steal0; ticks > 0 {
		r.note("the hypervisor stole %d clock ticks of CPU time from this machine during the run", ticks)
	}
	res := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := r.vals[d.Name]
		if !ok && cfg.trace != 1 {
			return r, result{}, fmt.Errorf("workload %s did not report %s", w.Name, d.Name)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	if r.firstErr != nil {
		r.note("first failure: %v", r.firstErr)
	}
	return r, res, nil
}

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "run one workload (default: all, each in its own process)")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for topologies, trigger roots and group membership")
	flag.Float64Var(&cfg.seconds, "seconds", runSeconds, "how long one run measures")
	flag.IntVar(&cfg.trace, "trace", -1, "0: untraced end-to-end run, 1: traced per-layer run, -1: both")
	flag.BoolVar(&cfg.quick, "quick", false, "tiny topologies and a handful of cycles (the size the tests use)")
	flag.StringVar(&cfg.out, "out", filepath.Join("bench", "out"), "directory for result files and span JSONL")
	flag.IntVar(&cfg.repeat, "repeat", 0, "stability check: two sets of N untraced runs per workload, seeds 1..N")
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		fatal(err)
	}
	var err error
	switch {
	case cfg.repeat > 0:
		err = stability(cfg)
	case cfg.workload != "" && cfg.trace >= 0:
		err = single(cfg)
	default:
		err = suite(cfg)
	}
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

var errIncorrect = errors.New("an oracle rejected an answer")

// single runs one workload in one mode in this process and ends its output
// with the result line.
func single(cfg config) error {
	env := readEnvironment(cfg.seed)
	env.warn()
	r, res, err := runWorkload(cfg)
	if err != nil {
		return err
	}
	rf := resultFile{Workload: cfg.workload, Traced: cfg.trace == 1, Quick: cfg.quick,
		Seconds: cfg.seconds, Env: env, Result: res, Notes: r.notes}
	base := fmt.Sprintf("%s-seed%d-trace%d", cfg.workload, cfg.seed, cfg.trace)
	if err := writeJSON(filepath.Join(cfg.out, base+".json"), rf); err != nil {
		return err
	}
	if r.traced() {
		if err := writeSpans(filepath.Join(cfg.out, base+".spans.jsonl"), r.tr.spans); err != nil {
			return err
		}
	}
	defs := endToEnd
	if r.traced() {
		defs = perLayer
	}
	printResult(cfg.workload, res, defs, r.notes)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return errIncorrect
	}
	return nil
}

// printResult prints every metric by name with its unit, in the order the
// contract lists them.
func printResult(workload string, res result, defs []metricDef, notes []string) {
	fmt.Printf("== %s: attempted %d, failed %d\n", workload, res.Attempted, res.Failed)
	for _, d := range defs {
		m := res.Metrics[d.Name]
		fmt.Printf("   %-34s %16.6g %s\n", d.Name, m.Value, m.Unit)
	}
	for _, n := range notes {
		fmt.Println("   #", n)
	}
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// child runs one workload in a fresh process of this binary — so GC state
// and the resident-set high-water mark do not leak between workloads — and
// returns the result its output ends with.
func child(cfg config, workload string, seed int64, trace int, echo bool) (result, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	args := []string{"-workload", workload, "-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(cfg.seconds), "-trace", fmt.Sprint(trace), "-out", cfg.out}
	if cfg.quick {
		args = append(args, "-quick")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output() // waits for the child to exit
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if echo && len(lines) > 1 {
		fmt.Println(strings.Join(lines[:len(lines)-1], "\n"))
	}
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		if runErr != nil {
			return result{}, fmt.Errorf("%s: %w", workload, runErr)
		}
		return result{}, fmt.Errorf("%s: no result line: %w", workload, err)
	}
	return res, nil
}

// selected lists the workloads a suite or stability run covers.
func selected(cfg config) ([]string, error) {
	if cfg.workload != "" {
		if findWorkload(cfg.workload) == nil {
			return nil, fmt.Errorf("unknown workload %q", cfg.workload)
		}
		return []string{cfg.workload}, nil
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	return names, nil
}

// suite runs the selected workloads untraced, then traced, each run in its
// own process, and writes everything to one results file.
func suite(cfg config) error {
	names, err := selected(cfg)
	if err != nil {
		return err
	}
	env := readEnvironment(cfg.seed)
	env.warn()
	fmt.Printf("bench: commit %s, seed %d, %d CPUs, GOMAXPROCS %d, GOGC %s, %s, %s, kernel %s\n",
		env.Commit, env.Seed, env.NumCPU, env.GOMAXPROCS, env.GOGC, env.GoVersion, env.CPUModel, env.Kernel)
	modes := []int{0, 1}
	if cfg.trace >= 0 {
		modes = []int{cfg.trace}
	}
	type entry struct {
		Workload string `json:"workload"`
		Traced   bool   `json:"traced"`
		Result   result `json:"result"`
	}
	all := struct {
		Env     environment `json:"env"`
		Seconds float64     `json:"seconds"`
		Runs    []entry     `json:"runs"`
	}{Env: env, Seconds: cfg.seconds}
	incorrect := false
	untraced := map[string]result{}
	for _, mode := range modes {
		for _, name := range names {
			res, err := child(cfg, name, cfg.seed, mode, true)
			if err != nil {
				return err
			}
			incorrect = incorrect || !res.Correct
			all.Runs = append(all.Runs, entry{name, mode == 1, res})
			if mode == 0 {
				untraced[name] = res
				continue
			}
			// A traced run must reproduce the untraced run's simulated
			// statistics: tracing may cost host time, never change what the
			// simulator did.
			if u, ok := untraced[name]; ok {
				for _, m := range []string{"rule_entries", "inband_msgs"} {
					if tv, uv := res.Metrics["harness."+m].Value, u.Metrics[m].Value; tv != uv {
						fmt.Printf("bench: %s: traced run reports %s = %v, untraced %v\n", name, m, tv, uv)
						incorrect = true
					}
				}
			}
		}
	}
	path := filepath.Join(cfg.out, "results.json")
	if err := writeJSON(path, all); err != nil {
		return err
	}
	fmt.Println("bench: results written to", path)
	if incorrect {
		return errIncorrect
	}
	return nil
}

// stability runs the untraced suite as two independent sets of cfg.repeat
// runs per workload (seeds 1..N), prints both medians, their gap and the
// quartile spread of every (metric, workload), and fails when a set's spread
// or the gap between the sets exceeds the metric's bound, or a simulated
// count differs between the sets.
func stability(cfg config) error {
	names, err := selected(cfg)
	if err != nil {
		return err
	}
	readEnvironment(cfg.seed).warn()
	type key struct{ workload, metric string }
	var sets [2]map[key][]float64
	for s := range sets {
		sets[s] = map[key][]float64{}
		for _, name := range names {
			for seed := int64(1); seed <= int64(cfg.repeat); seed++ {
				res, err := child(cfg, name, seed, 0, false)
				if err != nil {
					return err
				}
				if !res.Correct {
					return fmt.Errorf("%s seed %d: %w", name, seed, errIncorrect)
				}
				for m, v := range res.Metrics {
					k := key{name, m}
					sets[s][k] = append(sets[s][k], v.Value)
				}
				fmt.Fprintf(os.Stderr, "bench: set %d %s seed %d done\n", s+1, name, seed)
			}
		}
	}
	bad := 0
	fmt.Printf("%-22s %-20s %14s %14s %8s %8s %8s %6s\n", "workload", "metric", "median-1", "median-2", "gap", "spread-1", "spread-2", "bound")
	for _, name := range names {
		for _, d := range endToEnd {
			k := key{name, d.Name}
			a, b := sets[0][k], sets[1][k]
			ma, mb := median(a), median(b)
			gap := (mb - ma) / ma
			sa, sb := quartileSpread(a), quartileSpread(b)
			verdict := ""
			exact := d.Unit == "count"
			switch {
			case exact && !equalSorted(a, b):
				verdict = "  FAIL: simulated count differs between the sets"
			case gap > d.Bound || gap < -d.Bound:
				verdict = "  FAIL: sets disagree beyond the bound"
			case d.Name != "setup_s" && (sa > d.Bound || sb > d.Bound):
				verdict = "  FAIL: spread beyond the bound"
			case d.Name != "setup_s" && (sa > d.Bound/3 || sb > d.Bound/3):
				verdict = "  (spread above a third of the bound)"
			}
			if strings.Contains(verdict, "FAIL") {
				bad++
			}
			fmt.Printf("%-22s %-20s %14.6g %14.6g %+7.1f%% %7.1f%% %7.1f%% %5.0f%%%s\n",
				name, d.Name, ma, mb, 100*gap, 100*sa, 100*sb, 100*d.Bound, verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d (metric, workload) pairs outside their bounds", bad)
	}
	return nil
}

func equalSorted(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	x, y := append([]float64(nil), a...), append([]float64(nil), b...)
	sort.Float64s(x)
	sort.Float64s(y)
	for i := range x {
		if x[i] != y[i] {
			return false
		}
	}
	return true
}
