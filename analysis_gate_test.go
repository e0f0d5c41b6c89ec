package smartsouth_test

import (
	"strings"
	"testing"

	"smartsouth"
	"smartsouth/internal/core"
)

// TestAnalysisGateAcceptsCleanServices: with the gate on, the paper
// services install normally and the on-demand analysis stays clean.
func TestAnalysisGateAcceptsCleanServices(t *testing.T) {
	g := smartsouth.Ring(8)
	d := smartsouth.Deploy(g, smartsouth.WithAnalysis())
	if _, err := d.InstallSnapshot(); err != nil {
		t.Fatalf("snapshot rejected: %v", err)
	}
	if _, err := d.InstallBlackholeCounter(); err != nil {
		t.Fatalf("blackhole counter rejected: %v", err)
	}
	if errs := smartsouth.Errors(d.Analyze()); len(errs) != 0 {
		t.Fatalf("clean deployment analyzes dirty: %v", errs)
	}
}

// TestAnalysisGateRejectsSlotCollision: forcing a second service into an
// occupied slot (bypassing the facade's allocator) is caught by the gate
// before any rule is installed.
func TestAnalysisGateRejectsSlotCollision(t *testing.T) {
	g := smartsouth.Ring(8)
	d := smartsouth.Deploy(g, smartsouth.WithAnalysis())
	if _, err := d.InstallSnapshot(); err != nil { // takes slot 0
		t.Fatalf("snapshot rejected: %v", err)
	}
	flowsBefore := d.FlowEntries()

	_, err := core.InstallAnycast(d.CP, d.Graph, 0, map[uint32][]int{1: {2}}) // slot 0 again
	if err == nil {
		t.Fatal("conflicting install was not rejected")
	}
	if !strings.Contains(err.Error(), "deployment gate") {
		t.Errorf("rejection not attributed to the gate: %v", err)
	}
	if got := d.FlowEntries(); got != flowsBefore {
		t.Errorf("rejected program still changed the rule count: %d -> %d", flowsBefore, got)
	}

	// The same install into a free slot passes.
	if _, err := core.InstallAnycast(d.CP, d.Graph, d.Slot(), map[uint32][]int{1: {2}}); err != nil {
		t.Fatalf("anycast in a free slot rejected: %v", err)
	}
}

// TestAnalysisGateOffByDefault: without WithAnalysis the same collision
// is not intercepted (the per-program checks don't see across programs),
// preserving the previous behaviour for existing callers.
func TestAnalysisGateOffByDefault(t *testing.T) {
	g := smartsouth.Ring(8)
	d := smartsouth.Deploy(g)
	if _, err := d.InstallSnapshot(); err != nil {
		t.Fatalf("snapshot rejected: %v", err)
	}
	if _, err := core.InstallAnycast(d.CP, d.Graph, 0, map[uint32][]int{1: {2}}); err != nil {
		t.Fatalf("install unexpectedly gated: %v", err)
	}
}
