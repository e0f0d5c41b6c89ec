package simlint

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildTool compiles one of the suite's entry points into a temp dir
// and returns the binary path.
func buildTool(t *testing.T, pkg string) string {
	t.Helper()
	tool := filepath.Join(t.TempDir(), filepath.Base(pkg))
	build := exec.Command("go", "build", "-o", tool, "./"+filepath.Join("tools", filepath.Base(pkg)))
	build.Dir = "../../.."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building %s: %v\n%s", pkg, err, out)
	}
	return tool
}

// writeModule lays out a throwaway module the real go vet can chew on.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	files["go.mod"] = "module scratch\n\ngo 1.22\n"
	for name, src := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// govet runs `go vet -vettool=tool ./...` inside dir and returns the
// combined output and whether vet failed.
func govet(t *testing.T, tool, dir string) (string, bool) {
	t.Helper()
	vet := exec.Command("go", "vet", "-vettool="+tool, "./...")
	vet.Dir = dir
	vet.Env = append(os.Environ(), "GOFLAGS=")
	out, err := vet.CombinedOutput()
	return string(out), err != nil
}

const violatingSrc = `package scratch

type pkt struct{ used bool }

func (p *pkt) ClonePooled() *pkt { return &pkt{} }
func (p *pkt) Release()          {}

//simlint:hotpath
func Exec(n int) []byte {
	return make([]byte, n)
}

func leak(p *pkt, sink func(*pkt)) {
	c := p.ClonePooled()
	c.Release()
	sink(c)
}
`

// TestVetProtocolFlagsViolations drives the real `go vet -vettool`
// protocol over a throwaway module seeded with one violation per
// entry-point analyzer and asserts the exact positions survive the
// round trip through the unit-config machinery.
func TestVetProtocolFlagsViolations(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the tool and vets a module; skipped with -short")
	}
	tool := buildTool(t, "tools/simlint")
	dir := writeModule(t, map[string]string{"scratch.go": violatingSrc})
	out, failed := govet(t, tool, dir)
	if !failed {
		t.Fatalf("go vet -vettool=simlint passed on a violating module\n%s", out)
	}
	for _, want := range []string{
		"scratch.go:10:9: [hotpath] heap allocation (make) in hot path Exec",
		`scratch.go:16:7: [pool] use of pooled packet "c" after Release (released at line 15)`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("vet output missing %q\n%s", want, out)
		}
	}
}

// TestVetProtocolCleanModule: the same machinery stays quiet on clean
// code, including a hot function whose helpers are clean.
func TestVetProtocolCleanModule(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the tool and vets a module; skipped with -short")
	}
	tool := buildTool(t, "tools/simlint")
	dir := writeModule(t, map[string]string{"scratch.go": `package scratch

import "sync/atomic"

var hits atomic.Int64

//simlint:hotpath
func Exec(buf []int, v int) []int {
	hits.Add(1)
	return append(buf, v)
}
`})
	if out, failed := govet(t, tool, dir); failed {
		t.Fatalf("go vet -vettool=simlint flagged a clean module:\n%s", out)
	}
}

// TestVetProtocolCrossPackageFacts: the allocation facts of one package
// must reach hot callers in another package through the vetx files —
// the part of the protocol poollint v1 never exercised.
func TestVetProtocolCrossPackageFacts(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the tool and vets a module; skipped with -short")
	}
	tool := buildTool(t, "tools/simlint")
	dir := writeModule(t, map[string]string{
		"hot.go": `package scratch

import "scratch/helper"

//simlint:hotpath
func Exec(n int) []byte {
	return helper.Grow(n)
}
`,
	})
	if err := os.MkdirAll(filepath.Join(dir, "helper"), 0o755); err != nil {
		t.Fatal(err)
	}
	helperSrc := `package helper

func Grow(n int) []byte { return make([]byte, n) }
`
	if err := os.WriteFile(filepath.Join(dir, "helper", "helper.go"), []byte(helperSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	out, failed := govet(t, tool, dir)
	if !failed {
		t.Fatalf("cross-package allocation not flagged\n%s", out)
	}
	want := "hot.go:7:9: [hotpath] call to scratch/helper.Grow, which may allocate (heap allocation (make)), in hot path Exec"
	if !strings.Contains(out, want) {
		t.Errorf("vet output missing %q\n%s", want, out)
	}
}

// TestStandaloneJSONMode: `simlint -json dir` emits findings in the
// oflint codec: kind simlint-<analyzer>, severity error, coordinates
// -1, position+message in detail.
func TestStandaloneJSONMode(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the tool; skipped with -short")
	}
	tool := buildTool(t, "tools/simlint")
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "fixture.go"), []byte(violatingSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(tool, "-json", dir)
	out, err := cmd.Output()
	if err == nil {
		t.Fatalf("simlint -json exited 0 on a violating package\n%s", out)
	}
	var findings []struct {
		Kind     string `json:"kind"`
		Severity string `json:"severity"`
		Service  string `json:"service"`
		Switch   int    `json:"switch"`
		Detail   string `json:"detail"`
	}
	if err := json.Unmarshal(out, &findings); err != nil {
		t.Fatalf("output is not findings JSON: %v\n%s", err, out)
	}
	if len(findings) == 0 {
		t.Fatal("no findings decoded")
	}
	sawHot := false
	for _, f := range findings {
		if !strings.HasPrefix(f.Kind, "simlint-") {
			t.Errorf("kind %q lacks the simlint- prefix", f.Kind)
		}
		if f.Switch != -1 || f.Service != "simlint" {
			t.Errorf("finding coordinates not source-shaped: %+v", f)
		}
		if f.Kind == "simlint-hotpath" && strings.Contains(f.Detail, "heap allocation (make)") {
			sawHot = true
		}
	}
	if !sawHot {
		t.Errorf("hotpath finding missing from %s", out)
	}
}

// TestTreeCleanGate is the whole-repo gate: the same invocation CI runs
// must be clean — every annotation and every //simlint:ignore in the
// tree accounted for.
func TestTreeCleanGate(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the tool and vets the whole repo; skipped with -short")
	}
	tool := buildTool(t, "tools/simlint")
	root, err := filepath.Abs("../../..")
	if err != nil {
		t.Fatal(err)
	}
	if out, failed := govet(t, tool, root); failed {
		t.Fatalf("go vet -vettool=simlint reported findings on the tree:\n%s", out)
	}
}
