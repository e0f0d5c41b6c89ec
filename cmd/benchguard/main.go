// benchguard is the performance regression gate: it reads `go test
// -bench` output, compares every benchmark against a committed baseline
// (BENCH_*.json) and exits non-zero when any ns/op — or any allocs/op the
// baseline records — regresses past the threshold. CI pipes the benchmark
// run straight through it:
//
//	go test -bench . -benchmem ./... | benchguard -baseline BENCH_pr10.json -out BENCH_ci.json
//
// Exit codes: 0 all benchmarks within threshold, 1 regression found or a
// gated baseline row of a measured package went unmeasured, 2 usage or
// parse error. -scale multiplies the measured ns/op before
// comparing — `-scale 2.0` fakes a 2x regression, which CI uses as the
// negative test that the gate actually fires.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

var (
	baselinePath = flag.String("baseline", "", "baseline BENCH_*.json to compare against (required)")
	inPath       = flag.String("in", "", "benchmark output to read (default stdin)")
	outPath      = flag.String("out", "", "write the measured results as a new baseline JSON")
	threshold    = flag.Float64("threshold", 1.2, "fail when measured ns/op exceeds baseline by this factor")
	scale        = flag.Float64("scale", 1.0, "multiply measured ns/op before comparing (synthetic regression for testing the gate)")
	verbose      = flag.Bool("v", false, "print every comparison, not just regressions")
)

// Result is one measured benchmark.
type Result struct {
	Name     string  `json:"name"`
	Package  string  `json:"package,omitempty"`
	NsOp     float64 `json:"after_ns_op"`
	AllocsOp int64   `json:"after_allocs_op,omitempty"`
}

// RatioSpec gates a relationship between two measured rows rather than a
// row against its own past: the run fails when NsOp(Numerator) /
// NsOp(Denominator) drops below Min. The shard scaling curve commits its
// floor this way — the 1-shard-over-4-shard wall-clock ratio (the 4-shard
// speedup) may not fall below the committed machine floor, which catches
// the sharded engine's overhead growing even on runners where core count
// caps the achievable speedup. The -scale knob deliberately does not
// apply: it would cancel out of a ratio anyway.
type RatioSpec struct {
	Name        string  `json:"name"`
	Numerator   string  `json:"numerator"`
	Denominator string  `json:"denominator"`
	Min         float64 `json:"min"`
}

// Baseline is the committed BENCH_*.json shape. Only name, package,
// after_ns_op and the ratio specs matter to the gate; the rest is
// documentation.
type Baseline struct {
	PR         int         `json:"pr,omitempty"`
	Title      string      `json:"title,omitempty"`
	Machine    string      `json:"machine,omitempty"`
	Method     string      `json:"method,omitempty"`
	Benchmarks []Result    `json:"benchmarks"`
	Ratios     []RatioSpec `json:"ratios,omitempty"`
}

// CheckRatios evaluates the baseline's ratio specs against the measured
// rows (matched by name, ignoring package: ratio rows are unique across
// the suite). A spec whose rows were not measured in this invocation is
// skipped — benchguard is piped arbitrary benchmark subsets — and
// reported as such, so a CI leg that should have produced the rows
// cannot silently stop gating them.
func CheckRatios(specs []RatioSpec, measured []Result) (failures int) {
	byName := map[string]float64{}
	for _, m := range measured {
		byName[m.Name] = m.NsOp
	}
	for _, r := range specs {
		num, nok := byName[r.Numerator]
		den, dok := byName[r.Denominator]
		if !nok || !dok || den == 0 {
			fmt.Printf("ratio %-40s skipped (rows not in this run)\n", r.Name)
			continue
		}
		ratio := num / den
		if ratio < r.Min {
			failures++
			fmt.Printf("RATIO REGRESSION %-30s %s / %s = %.2f  (min %.2f)\n",
				r.Name, r.Numerator, r.Denominator, ratio, r.Min)
		} else {
			fmt.Printf("ratio ok   %-40s %.2f >= %.2f\n", r.Name, ratio, r.Min)
		}
	}
	return failures
}

// gomaxprocsSuffix is the trailing "-N" go test appends to benchmark
// names; it varies with the machine and must not affect matching.
var gomaxprocsSuffix = regexp.MustCompile(`-\d+$`)

var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+\d+\s+([0-9.]+) ns/op(.*)$`)
var allocsField = regexp.MustCompile(`\s([0-9]+) allocs/op`)

// ParseBench extracts benchmark results from `go test -bench` output,
// tracking `pkg:` headers so each result is package-qualified.
func ParseBench(r io.Reader) ([]Result, error) {
	var out []Result
	pkg := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "pkg: "); ok {
			pkg = strings.TrimSpace(rest)
			continue
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			return nil, fmt.Errorf("bad ns/op in %q: %w", line, err)
		}
		res := Result{
			Name:    gomaxprocsSuffix.ReplaceAllString(m[1], ""),
			Package: pkg,
			NsOp:    ns,
		}
		if am := allocsField.FindStringSubmatch(m[3]); am != nil {
			res.AllocsOp, _ = strconv.ParseInt(am[1], 10, 64)
		}
		out = append(out, res)
	}
	return out, sc.Err()
}

// Comparison is the verdict for one benchmark present in both runs.
// Allocation counts are compared where the baseline row records one: they
// repeat across machines, so they catch a per-item allocation coming back
// even where timing noise would hide it. -scale does not apply to them.
type Comparison struct {
	Name           string
	Package        string
	BaselineNs     float64
	MeasuredNs     float64 // after -scale
	Ratio          float64
	BaselineAllocs int64
	MeasuredAllocs int64
	Regressed      bool // ns/op or allocs/op past the threshold
}

// AllocsRegressed reports whether the allocation count alone is past the
// threshold.
func (c Comparison) AllocsRegressed(threshold float64) bool {
	return c.BaselineAllocs > 0 && float64(c.MeasuredAllocs) > float64(c.BaselineAllocs)*threshold
}

// Compare matches measured results against the baseline by package+name
// (falling back to name alone, so a baseline without package fields still
// gates) and flags every ratio above threshold. A measured name with no
// baseline row is retried with trailing "/..." sub-benchmark segments
// stripped, so a benchmark that grew a dimension since the baseline (e.g.
// BenchmarkTable2Snapshot/n=20/E=29 vs a committed
// BenchmarkTable2Snapshot/n=20) still gates against the old row.
// Benchmarks new since the baseline pass unconditionally; they have
// nothing to regress from.
func Compare(baseline []Result, measured []Result, threshold, scale float64) []Comparison {
	match := matcher(baseline)
	var out []Comparison
	for _, m := range measured {
		b, ok := match(m)
		if !ok {
			continue
		}
		got := m.NsOp * scale
		c := Comparison{
			Name: m.Name, Package: m.Package,
			BaselineNs: b.NsOp, MeasuredNs: got, Ratio: got / b.NsOp,
			BaselineAllocs: b.AllocsOp, MeasuredAllocs: m.AllocsOp,
		}
		c.Regressed = c.Ratio > threshold || c.AllocsRegressed(threshold)
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Ratio > out[j].Ratio })
	return out
}

// matcher returns the baseline row a measured result gates against, by
// package+name, then name alone, then with trailing sub-benchmark
// segments stripped (see Compare).
func matcher(baseline []Result) func(m Result) (Result, bool) {
	byKey := map[string]Result{}
	byName := map[string]Result{}
	for _, b := range baseline {
		if b.NsOp <= 0 {
			continue // baseline rows without an after_ns_op are documentation
		}
		byKey[b.Package+" "+b.Name] = b
		byName[b.Name] = b
	}
	lookup := func(pkg, name string) (Result, bool) {
		if b, ok := byKey[pkg+" "+name]; ok {
			return b, true
		}
		b, ok := byName[name]
		return b, ok
	}
	return func(m Result) (Result, bool) {
		b, ok := lookup(m.Package, m.Name)
		for name := m.Name; !ok; {
			i := strings.LastIndexByte(name, '/')
			if i < 0 {
				break
			}
			name = name[:i]
			b, ok = lookup(m.Package, name)
		}
		return b, ok
	}
}

// Unmeasured lists the gated baseline rows (those with an after_ns_op)
// of every package the input measured that no measured result matched:
// a benchmark deleted or renamed without its row would otherwise drop
// its gate silently. Packages the input did not run are not reported —
// benchguard is piped arbitrary package subsets.
func Unmeasured(baseline []Result, measured []Result) []Result {
	match := matcher(baseline)
	pkgs := map[string]bool{}
	hit := map[string]bool{}
	for _, m := range measured {
		pkgs[m.Package] = true
		if b, ok := match(m); ok {
			hit[b.Package+" "+b.Name] = true
		}
	}
	var out []Result
	for _, b := range baseline {
		if b.NsOp > 0 && pkgs[b.Package] && !hit[b.Package+" "+b.Name] {
			out = append(out, b)
		}
	}
	return out
}

func main() {
	flag.Parse()
	if *baselinePath == "" {
		fmt.Fprintln(os.Stderr, "benchguard: -baseline is required")
		os.Exit(2)
	}
	data, err := os.ReadFile(*baselinePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchguard: %v\n", err)
		os.Exit(2)
	}
	var base Baseline
	if err := json.Unmarshal(data, &base); err != nil {
		fmt.Fprintf(os.Stderr, "benchguard: parse %s: %v\n", *baselinePath, err)
		os.Exit(2)
	}

	in := io.Reader(os.Stdin)
	if *inPath != "" {
		f, err := os.Open(*inPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchguard: %v\n", err)
			os.Exit(2)
		}
		defer f.Close()
		in = f
	}
	measured, err := ParseBench(in)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchguard: %v\n", err)
		os.Exit(2)
	}
	if len(measured) == 0 {
		fmt.Fprintln(os.Stderr, "benchguard: no benchmark results in input")
		os.Exit(2)
	}

	if *outPath != "" {
		doc := Baseline{
			Method:     "after_ns_op from one `go test -bench` run, recorded by benchguard",
			Benchmarks: measured,
		}
		js, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchguard: %v\n", err)
			os.Exit(2)
		}
		if err := os.WriteFile(*outPath, append(js, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "benchguard: %v\n", err)
			os.Exit(2)
		}
		fmt.Printf("benchguard: wrote %d results to %s\n", len(measured), *outPath)
	}

	comps := Compare(base.Benchmarks, measured, *threshold, *scale)
	regressions := CheckRatios(base.Ratios, measured)
	missing := Unmeasured(base.Benchmarks, measured)
	for _, b := range missing {
		fmt.Printf("UNMEASURED %-50s (%s): gated in %s but not in the input\n", b.Name, b.Package, *baselinePath)
	}
	for _, c := range comps {
		if c.Regressed {
			regressions++
			if c.AllocsRegressed(*threshold) {
				fmt.Printf("REGRESSION %-50s %10d -> %10d allocs/op  (> %.2fx)\n",
					c.Name, c.BaselineAllocs, c.MeasuredAllocs, *threshold)
			}
			if c.Ratio > *threshold {
				fmt.Printf("REGRESSION %-50s %10.0f -> %10.0f ns/op  (%.2fx > %.2fx)\n",
					c.Name, c.BaselineNs, c.MeasuredNs, c.Ratio, *threshold)
			}
		} else if *verbose {
			fmt.Printf("ok         %-50s %10.0f -> %10.0f ns/op  (%.2fx)\n",
				c.Name, c.BaselineNs, c.MeasuredNs, c.Ratio)
		}
	}
	fmt.Printf("benchguard: %d measured, %d compared against %s, %d regression(s), %d unmeasured, threshold %.2fx\n",
		len(measured), len(comps), *baselinePath, regressions, len(missing), *threshold)
	if regressions > 0 || len(missing) > 0 {
		os.Exit(1)
	}
}
