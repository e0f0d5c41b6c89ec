package analysis_test

import (
	"reflect"
	"strings"
	"testing"

	"smartsouth/internal/openflow"
	"smartsouth/internal/topo"
	"smartsouth/internal/verify"
)

func findingsOf(fs []verify.Finding, kind verify.Kind) []verify.Finding {
	var out []verify.Finding
	for _, f := range fs {
		if f.Kind == kind {
			out = append(out, f)
		}
	}
	return out
}

// TestCrossProgramPriorityConflict builds two programs that install
// overlapping matches at the same priority in the same table of the same
// switch — the behaviour then depends on install order, which the
// analyzer must flag as an error with both services named.
func TestCrossProgramPriorityConflict(t *testing.T) {
	fs := overlapFixture().check()
	conflicts := findingsOf(fs, verify.KindOverlap)
	if len(conflicts) != 1 {
		t.Fatalf("want exactly 1 overlap conflict, got %d: %v", len(conflicts), fs)
	}
	c := conflicts[0]
	if c.Severity != verify.Err {
		t.Errorf("overlap severity = %v, want Err", c.Severity)
	}
	if c.Switch != 0 || c.Table != 0 {
		t.Errorf("overlap provenance sw=%d t=%d, want sw=0 t=0", c.Switch, c.Table)
	}
	if c.Service != "svc-two" || c.Cookie != "two/dispatch" {
		t.Errorf("overlap blames %q/%q, want the later program svc-two/two/dispatch", c.Service, c.Cookie)
	}
	if !strings.Contains(c.Detail, "svc-one") {
		t.Errorf("overlap detail does not name the other service: %s", c.Detail)
	}
}

// TestCrossProgramShadowing: a rule covered from above by another
// program's rule (b/narrow, a/eth-b) is a conflict-shadow warning naming
// that program; a rule
// whose highest coverer is its own program's broader rule is that
// program's override, an Info, even when another program's rule covers
// it further down.
func TestCrossProgramShadowing(t *testing.T) {
	fs := interactionFixture().check()
	byCookie := map[string][]verify.Finding{}
	for _, f := range fs {
		if f.Kind == verify.KindShadow || f.Kind == verify.KindCrossShadow {
			byCookie[f.Cookie] = append(byCookie[f.Cookie], f)
		}
	}
	if got := byCookie["b/narrow"]; len(got) != 1 || got[0].Kind != verify.KindCrossShadow ||
		got[0].Severity != verify.Warn || got[0].Service != "svc-b" || !strings.Contains(got[0].Detail, "svc-a") {
		t.Errorf("b/narrow: %v, want one conflict-shadow warning on svc-b naming svc-a", got)
	}
	if got := byCookie["b/masked"]; len(got) != 1 || got[0].Kind != verify.KindShadow ||
		got[0].Severity != verify.Info || !strings.Contains(got[0].Detail, "b/own") {
		t.Errorf("b/masked: %v, want one shadow info naming b/own", got)
	}
	if got := byCookie["a/eth-b"]; len(got) != 1 || got[0].Kind != verify.KindCrossShadow || !strings.Contains(got[0].Detail, "svc-b") {
		t.Errorf("a/eth-b: %v, want one conflict-shadow naming svc-b", got)
	}
	if len(byCookie) != 3 {
		t.Errorf("rule interactions on %d rules, want 3: %v", len(byCookie), fs)
	}
}

// TestSlotAndGroupAndCookieCollisions drives the remaining composition
// checks: two programs claiming the same slot, the same group ID on one
// switch, and the same cookie prefix.
func TestSlotAndGroupAndCookieCollisions(t *testing.T) {
	fs := collisionFixture().check()

	if got := findingsOf(fs, verify.KindSlotCollision); len(got) != 1 {
		t.Errorf("slot collisions = %v, want exactly 1", got)
	} else if got[0].Severity != verify.Err || got[0].Service != "second" {
		t.Errorf("slot collision = %+v, want Err blaming 'second'", got[0])
	}
	if got := findingsOf(fs, verify.KindGroupCollision); len(got) != 1 {
		t.Errorf("group collisions = %v, want exactly 1", got)
	} else if got[0].Switch != 0 || !strings.Contains(got[0].Detail, "first") {
		t.Errorf("group collision = %+v, want sw0 naming 'first'", got[0])
	}
	if got := findingsOf(fs, verify.KindCookieCollision); len(got) != 1 {
		t.Errorf("cookie collisions = %v, want exactly 1", got)
	} else if !strings.Contains(got[0].Detail, "svc0001") {
		t.Errorf("cookie collision = %+v, want prefix svc0001 named", got[0])
	}
}

// TestGroupCollisionModelsLastWriter pins which of two colliding groups
// the walk reasons about: the switch keeps the later program's group 7
// (Switch.AddGroups replaces by ID), so the blackhole behind its bucket —
// an output to a port with no link — must be found, while the earlier
// program's bucket, which reaches a neighbour that delivers, must not
// hide it.
func TestGroupCollisionModelsLastWriter(t *testing.T) {
	fs := lastWriterFixture().check()
	if got := findingsOf(fs, verify.KindGroupCollision); len(got) != 1 || got[0].Service != "second" {
		t.Errorf("group collisions = %v, want one blaming 'second'", got)
	}
	var bh []verify.Finding
	for _, f := range findingsOf(fs, verify.KindBlackhole) {
		if f.Switch == 0 && strings.Contains(f.Detail, "port 2, which has no link") {
			bh = append(bh, f)
		}
	}
	if len(bh) != 1 {
		t.Fatalf("want the second program's group-7 blackhole on sw0 port 2, got %v", fs)
	}
}

// TestForwardingLoopOnRing builds a tag encoding that loops on Ring(4):
// every switch forwards the EtherType out port 1 unconditionally, so the
// packet ping-pongs between neighbours forever with an unchanged state.
func TestForwardingLoopOnRing(t *testing.T) {
	fs := loopFixture().check()
	loops := findingsOf(fs, verify.KindLoop)
	if len(loops) == 0 {
		t.Fatalf("no loop detected: %v", fs)
	}
	l := loops[0]
	if l.Severity != verify.Err {
		t.Errorf("loop severity = %v, want Err", l.Severity)
	}
	if l.Service != "loopy" || l.Slot != 0 {
		t.Errorf("loop provenance = %q slot %d, want loopy slot 0", l.Service, l.Slot)
	}
	if !strings.Contains(l.Detail, "->") {
		t.Errorf("loop detail has no cycle path: %s", l.Detail)
	}
	// No blackholes: the packet never dies, it just never stops.
	if bh := findingsOf(fs, verify.KindBlackhole); len(bh) != 0 {
		t.Errorf("unexpected blackholes: %v", bh)
	}
}

// TestBlackholeOnStar asserts the missing-leaf-rule star broadcast is
// reported as one table-0 blackhole per leaf.
func TestBlackholeOnStar(t *testing.T) {
	fs := starBlackholeFixture().check() // center 0, leaves 1..3
	bhs := findingsOf(fs, verify.KindBlackhole)
	if len(bhs) != 3 {
		t.Fatalf("want 3 blackholes (one per leaf), got %d: %v", len(bhs), fs)
	}
	leaves := map[int]bool{}
	for _, f := range bhs {
		if f.Severity != verify.Err {
			t.Errorf("blackhole severity = %v, want Err", f.Severity)
		}
		if f.Table != 0 {
			t.Errorf("blackhole table = %d, want 0 (table-0 miss)", f.Table)
		}
		if f.Service != "bcast" {
			t.Errorf("blackhole provenance = %q, want bcast", f.Service)
		}
		leaves[f.Switch] = true
	}
	for leaf := 1; leaf <= 3; leaf++ {
		if !leaves[leaf] {
			t.Errorf("leaf %d not reported", leaf)
		}
	}
	if loops := findingsOf(fs, verify.KindLoop); len(loops) != 0 {
		t.Errorf("unexpected loops: %v", loops)
	}
}

// TestMidServiceBlackhole seeds the other blackhole class: the dispatch
// rule sends the packet into a slot table where no rule matches it.
func TestMidServiceBlackhole(t *testing.T) {
	fs := midServiceFixture().check()
	bhs := findingsOf(fs, verify.KindBlackhole)
	if len(bhs) != 1 {
		t.Fatalf("want 1 mid-service blackhole, got %d: %v", len(bhs), fs)
	}
	if bhs[0].Table != 1 || bhs[0].Switch != 0 || bhs[0].Severity != verify.Err {
		t.Errorf("blackhole = %+v, want Err at sw0 table 1", bhs[0])
	}
}

// TestCleanDeploymentNoFindings: two well-behaved programs on disjoint
// EtherTypes, slots and cookie prefixes produce no findings at all.
func TestCleanDeploymentNoFindings(t *testing.T) {
	fs := cleanFixture().check()
	if len(fs) != 0 {
		t.Fatalf("clean deployment produced findings: %v", fs)
	}
}

// TestDeadRuleReporting: an unreachable rule is reported only when the
// option is on, at Info severity.
func TestDeadRuleReporting(t *testing.T) {
	fx := deadRuleFixture()
	fs := fx.check()
	if dead := findingsOf(fs, verify.KindDeadRule); len(dead) != 0 {
		t.Errorf("dead rules reported without opt-in: %v", dead)
	}
	fx.opts.ReportDeadRules = true
	fs = fx.check()
	dead := findingsOf(fs, verify.KindDeadRule)
	if len(dead) != 1 || dead[0].Cookie != "svc/dead" || dead[0].Severity != verify.Info {
		t.Fatalf("dead rules = %v, want exactly svc/dead at Info", dead)
	}
}

// TestSlotDiscipline: with the slot geometry provided, a rule outside
// its program's table range is flagged.
func TestSlotDiscipline(t *testing.T) {
	fs := slotFixture().check()
	if got := findingsOf(fs, verify.KindSlotViolation); len(got) != 1 || got[0].Table != 99 {
		t.Fatalf("slot violations = %v, want exactly 1 at table 99", got)
	}
}

// dfsFixture compiles by hand the minimal 2-node "traversal": inject at
// either node, bounce off the far node with a mark, finish at the root.
func dfsFixture(g *topo.Graph, withBounce bool) *openflow.Program {
	f := openflow.Field{Name: "mark", Off: 0, Bits: 1}
	p := openflow.NewProgram("minidfs", 0)
	for sw := 0; sw < g.NumNodes(); sw++ {
		p.Ensure(sw, g.Degree(sw))
		p.AddFlow(sw, 0, &openflow.FlowEntry{ // finish: marked packet returns
			Priority: 10, Match: openflow.MatchEth(ethA).WithField(f, 1), Goto: openflow.NoGoto,
			Actions: []openflow.Action{openflow.Output{Port: openflow.PortController}},
			Cookie:  "minidfs/finish",
		})
		if withBounce {
			p.AddFlow(sw, 0, &openflow.FlowEntry{ // bounce: mark and return
				Priority: 5, Match: openflow.MatchEth(ethA).WithInPort(1).WithField(f, 0), Goto: openflow.NoGoto,
				Actions: []openflow.Action{openflow.SetField{F: f, Value: 1}, openflow.Output{Port: openflow.PortInPort}},
				Cookie:  "minidfs/bounce",
			})
		}
		p.AddFlow(sw, 0, &openflow.FlowEntry{ // start: fresh trigger
			Priority: 1, Match: openflow.MatchEth(ethA), Goto: openflow.NoGoto,
			Actions: []openflow.Action{openflow.Output{Port: 1}},
			Cookie:  "minidfs/start",
		})
	}
	return p
}

func TestProveDFSHolds(t *testing.T) {
	g := topo.Line(2)
	fs := verify.ProveDFS(dfsFixture(g, true), g, verify.Options{})
	if len(fs) != 0 {
		t.Fatalf("invariant should hold on Line(2): %v", fs)
	}
}

func TestProveDFSViolation(t *testing.T) {
	g := topo.Line(2)
	fs := verify.ProveDFS(dfsFixture(g, false), g, verify.Options{})
	errs := verify.Errors(fs)
	if len(errs) == 0 {
		t.Fatalf("missing bounce rule must break the invariant: %v", fs)
	}
	for _, f := range errs {
		if f.Kind != verify.KindDFS {
			t.Errorf("finding kind = %s, want %s", f.Kind, verify.KindDFS)
		}
	}
}

// TestCookieCollisionOrderIsStable: two programs sharing several cookie
// prefixes must get their cookie-collision findings in the same order on
// every call, whatever order a map hands the prefixes back in.
func TestCookieCollisionOrderIsStable(t *testing.T) {
	fx := cookieFixture()
	first := fx.check()
	if got := findingsOf(first, verify.KindCookieCollision); len(got) != 6 {
		t.Fatalf("cookie collisions = %v, want 6", got)
	}
	for i := 1; i < 20; i++ {
		if again := fx.check(); !reflect.DeepEqual(again, first) {
			t.Fatalf("call %d reports\n  %v\nafter\n  %v", i+1, again, first)
		}
	}
}
