package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

func mustParseFixture(t *testing.T) []Result {
	t.Helper()
	f, err := os.Open("testdata/bench_output.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rs, err := ParseBench(f)
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

func loadFixtureBaseline(t *testing.T) Baseline {
	t.Helper()
	data, err := os.ReadFile("testdata/baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	var b Baseline
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestParseBench(t *testing.T) {
	rs := mustParseFixture(t)
	if len(rs) != 4 {
		t.Fatalf("parsed %d results, want 4: %+v", len(rs), rs)
	}
	first := rs[0]
	if first.Name != "BenchmarkTable2Snapshot/n=20" {
		t.Fatalf("GOMAXPROCS suffix not stripped: %q", first.Name)
	}
	if first.Package != "smartsouth" || first.NsOp != 70100 || first.AllocsOp != 0 {
		t.Fatalf("first result wrong: %+v", first)
	}
	if rs[2].Name != "BenchmarkBrandNew" || rs[2].AllocsOp != 1 {
		t.Fatalf("allocs not parsed: %+v", rs[2])
	}
	last := rs[3]
	if last.Package != "smartsouth/internal/network" || last.NsOp != 260.5 {
		t.Fatalf("pkg tracking or fractional ns/op wrong: %+v", last)
	}
}

func TestCompareWithinThreshold(t *testing.T) {
	comps := Compare(loadFixtureBaseline(t).Benchmarks, mustParseFixture(t), 1.2, 1.0)
	// BrandNew has no baseline, Retired/DocOnly were not measured: 3 rows.
	if len(comps) != 3 {
		t.Fatalf("compared %d, want 3: %+v", len(comps), comps)
	}
	for _, c := range comps {
		if c.Regressed {
			t.Fatalf("unexpected regression: %+v", c)
		}
		if c.Ratio < 0.9 || c.Ratio > 1.2 {
			t.Fatalf("ratio out of expected band: %+v", c)
		}
	}
}

func TestCompareSyntheticRegression(t *testing.T) {
	comps := Compare(loadFixtureBaseline(t).Benchmarks, mustParseFixture(t), 1.2, 2.0)
	regressed := 0
	for _, c := range comps {
		if c.Regressed {
			regressed++
		}
	}
	if regressed != len(comps) || regressed == 0 {
		t.Fatalf("a 2x scale must regress every compared benchmark: %+v", comps)
	}
	// Sorted worst-first.
	for i := 1; i < len(comps); i++ {
		if comps[i].Ratio > comps[i-1].Ratio {
			t.Fatalf("comparisons not sorted by ratio: %+v", comps)
		}
	}
}

func TestCompareGatesAllocsWhereTheBaselineRecordsThem(t *testing.T) {
	base := []Result{
		{Name: "BenchmarkCompile/snapshot/isp", NsOp: 100, AllocsOp: 1000},
		{Name: "BenchmarkLinkCrossing", NsOp: 100}, // no allocation count recorded
	}
	measured := []Result{
		{Name: "BenchmarkCompile/snapshot/isp", NsOp: 90, AllocsOp: 8000}, // faster, but allocates per item again
		{Name: "BenchmarkLinkCrossing", NsOp: 100, AllocsOp: 3},
	}
	for _, c := range Compare(base, measured, 1.2, 1.0) {
		if want := c.Name == "BenchmarkCompile/snapshot/isp"; c.Regressed != want || c.AllocsRegressed(1.2) != want {
			t.Errorf("%s: regressed=%v, want %v: %+v", c.Name, c.Regressed, want, c)
		}
	}
	measured[0].AllocsOp = 1100 // inside the threshold
	for _, c := range Compare(base, measured, 1.2, 1.0) {
		if c.Regressed {
			t.Errorf("10%% more allocations tripped a 20%% gate: %+v", c)
		}
	}
}

func TestCompareNameOnlyFallback(t *testing.T) {
	base := []Result{{Name: "BenchmarkLinkCrossing", NsOp: 255}} // no package
	comps := Compare(base, mustParseFixture(t), 1.2, 1.0)
	if len(comps) != 1 || comps[0].Name != "BenchmarkLinkCrossing" {
		t.Fatalf("name-only baseline must still match: %+v", comps)
	}
}

func TestComparePrefixFallback(t *testing.T) {
	// A benchmark that grew a sub-benchmark dimension since the baseline
	// must still gate against the old row under its longest matching
	// prefix — but only at "/" boundaries, never by raw string prefix.
	base := []Result{
		{Name: "BenchmarkTable2Snapshot/n=20", Package: "smartsouth", NsOp: 100},
		{Name: "BenchmarkLinkCrossing", Package: "smartsouth/internal/network", NsOp: 255},
	}
	measured := []Result{
		{Name: "BenchmarkTable2Snapshot/n=20/E=29", Package: "smartsouth", NsOp: 150},
		{Name: "BenchmarkLinkCrossingTelemetry", Package: "smartsouth/internal/network", NsOp: 600},
	}
	comps := Compare(base, measured, 1.2, 1.0)
	if len(comps) != 1 {
		t.Fatalf("want exactly the stripped-suffix match, got %+v", comps)
	}
	c := comps[0]
	if c.Name != "BenchmarkTable2Snapshot/n=20/E=29" || c.BaselineNs != 100 || !c.Regressed {
		t.Fatalf("prefix fallback mismatched: %+v", c)
	}
}

func TestCompareIgnoresUnmeasuredBaselineRows(t *testing.T) {
	// DocOnly has no after_ns_op; a measured result named like it must not
	// divide by zero or match.
	base := loadFixtureBaseline(t).Benchmarks
	measured := []Result{{Name: "BenchmarkDocOnly", Package: "smartsouth", NsOp: 100}}
	if comps := Compare(base, measured, 1.2, 1.0); len(comps) != 0 {
		t.Fatalf("documentation rows must not gate: %+v", comps)
	}
}

func TestBaselineRoundTrip(t *testing.T) {
	// A baseline emitted from measured results must parse back and gate.
	measured := mustParseFixture(t)
	js, err := json.Marshal(Baseline{Benchmarks: measured})
	if err != nil {
		t.Fatal(err)
	}
	var back Baseline
	if err := json.Unmarshal(js, &back); err != nil {
		t.Fatal(err)
	}
	comps := Compare(back.Benchmarks, measured, 1.2, 1.0)
	if len(comps) != len(measured) {
		t.Fatalf("round-tripped baseline compared %d of %d", len(comps), len(measured))
	}
	for _, c := range comps {
		if c.Ratio != 1.0 || c.Regressed {
			t.Fatalf("self-comparison must be exactly 1.0x: %+v", c)
		}
	}
}

func TestParseBenchRejectsNothing(t *testing.T) {
	rs, err := ParseBench(strings.NewReader("PASS\nok\tsmartsouth\t1.0s\n"))
	if err != nil || len(rs) != 0 {
		t.Fatalf("non-benchmark output: %v %v", rs, err)
	}
}
