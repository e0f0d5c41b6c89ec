package verify_test

import (
	"slices"
	"strings"
	"testing"

	"smartsouth/internal/controller"
	"smartsouth/internal/core"
	"smartsouth/internal/network"
	"smartsouth/internal/openflow"
	"smartsouth/internal/topo"
	"smartsouth/internal/verify"
)

// TestAllServicesVerifyClean installs every SmartSouth service and runs
// the static checker over every switch: no Err-level findings allowed.
// This is the mechanized version of the paper's "the data plane remains
// formally verifiable" argument.
func TestAllServicesVerifyClean(t *testing.T) {
	g := topo.RandomConnected(10, 6, 3)
	net := network.New(g, network.Options{})
	c := controller.New(net)

	if _, err := core.InstallSnapshot(c, g, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := core.InstallAnycast(c, g, 1, map[uint32][]int{1: {3}}); err != nil {
		t.Fatal(err)
	}
	if _, err := core.InstallPriocast(c, g, 2, map[uint32][]core.PrioMember{2: {{Node: 4, Prio: 5}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := core.InstallCritical(c, g, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := core.InstallBlackholeCounter(c, g, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := core.InstallBlackholeTTL(c, g, 6); err != nil {
		t.Fatal(err)
	}
	if _, err := core.InstallPktLoss(c, g, 7, nil); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < net.NumSwitches(); i++ {
		issues := verify.Switch(net.Switch(i), verify.Options{})
		if errs := verify.Errors(issues); len(errs) > 0 {
			for _, e := range errs {
				t.Errorf("%s", e)
			}
		}
	}
}

func TestVerifyDispatcherOverrideIsInfo(t *testing.T) {
	// The blackhole detectors deliberately override the template dispatcher
	// with an identical-match higher-priority rule steering into the
	// pre-table; the checker must surface that as an informational
	// override, not a shadow warning and not an error.
	g := topo.Line(3)
	net := network.New(g, network.Options{})
	c := controller.New(net)
	if _, err := core.InstallBlackholeCounter(c, g, 0); err != nil {
		t.Fatal(err)
	}
	issues := verify.Switch(net.Switch(1), verify.Options{})
	foundOverride := false
	for _, i := range issues {
		if i.Severity == verify.Info && strings.Contains(i.Detail, "overridden") {
			foundOverride = true
		}
		if i.Severity == verify.Warn && strings.Contains(i.Detail, "shadowed") {
			t.Errorf("deliberate override misreported as shadow: %s", i)
		}
		if i.Severity == verify.Err {
			t.Errorf("unexpected error: %s", i)
		}
	}
	if !foundOverride {
		t.Error("expected an override note for the dispatcher override")
	}
}

func TestVerifyMultiSlotServiceNoShadowWarn(t *testing.T) {
	// Chaincast installs broad per-member exit rules above its own slot
	// rules — the multi-slot override idiom. Those must not surface as
	// shadow warnings.
	g := topo.Line(4)
	net := network.New(g, network.Options{})
	c := controller.New(net)
	if _, err := core.InstallChaincast(c, g, 0, [][]int{{0, 2}, {1, 3}}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < net.NumSwitches(); i++ {
		for _, is := range verify.Switch(net.Switch(i), verify.Options{}) {
			if is.Severity == verify.Warn && strings.Contains(is.Detail, "shadowed") {
				t.Errorf("sw%d: multi-slot override misreported as shadow: %s", i, is)
			}
			if is.Severity == verify.Err {
				t.Errorf("sw%d: unexpected error: %s", i, is)
			}
		}
	}
}

func TestVerifyDisjointMatchesNotShadowed(t *testing.T) {
	// Regression: two rules at descending priority with disjoint matches
	// on the same EtherType are independent — neither shadows nor
	// overrides the other.
	sw := brokenSwitch()
	f := openflow.Field{Name: "x", Off: 0, Bits: 4}
	sw.AddFlow(0, &openflow.FlowEntry{Priority: 10, Match: openflow.MatchEth(5).WithField(f, 1),
		Goto: openflow.NoGoto, Cookie: "first"})
	sw.AddFlow(0, &openflow.FlowEntry{Priority: 5, Match: openflow.MatchEth(5).WithField(f, 2),
		Goto: openflow.NoGoto, Cookie: "second"})
	for _, i := range verify.Switch(sw, verify.Options{}) {
		if strings.Contains(i.Detail, "shadowed") || strings.Contains(i.Detail, "overridden") {
			t.Errorf("disjoint rules flagged: %s", i)
		}
	}
}

func brokenSwitch() *openflow.Switch {
	return openflow.NewSwitch(0, 2)
}

func TestVerifyBackwardGoto(t *testing.T) {
	sw := brokenSwitch()
	sw.AddFlow(3, &openflow.FlowEntry{Priority: 1, Match: openflow.MatchAll(), Goto: 1, Cookie: "bad"})
	sw.AddFlow(1, &openflow.FlowEntry{Priority: 1, Match: openflow.MatchAll(), Goto: openflow.NoGoto, Cookie: "t1"})
	issues := verify.Errors(verify.Switch(sw, verify.Options{}))
	if len(issues) != 1 || !strings.Contains(issues[0].Detail, "backward goto") {
		t.Fatalf("issues = %v", issues)
	}
}

func TestVerifyDanglingGotoAndGroup(t *testing.T) {
	sw := brokenSwitch()
	sw.AddFlow(0, &openflow.FlowEntry{Priority: 1, Match: openflow.MatchAll(), Goto: 9,
		Actions: []openflow.Action{openflow.Group{ID: 42}}, Cookie: "dangling"})
	issues := verify.Switch(sw, verify.Options{})
	var gotoWarn, groupErr bool
	for _, i := range issues {
		if strings.Contains(i.Detail, "goto empty table") && i.Severity == verify.Warn {
			gotoWarn = true
		}
		if strings.Contains(i.Detail, "missing group") && i.Severity == verify.Err {
			groupErr = true
		}
	}
	if !gotoWarn || !groupErr {
		t.Fatalf("gotoWarn=%v groupErr=%v: %v", gotoWarn, groupErr, issues)
	}
}

func TestVerifyInvalidOutputs(t *testing.T) {
	sw := brokenSwitch()
	sw.AddFlow(0, &openflow.FlowEntry{Priority: 1, Match: openflow.MatchAll(),
		Goto: openflow.NoGoto, Actions: []openflow.Action{openflow.Output{Port: 7}}, Cookie: "badport"})
	sw.AddGroup(&openflow.GroupEntry{ID: 1, Type: openflow.GroupIndirect, Buckets: []openflow.Bucket{
		{Actions: []openflow.Action{openflow.Output{Port: 99}}},
	}})
	sw.AddFlow(0, &openflow.FlowEntry{Priority: 2, Match: openflow.MatchEth(5),
		Goto: openflow.NoGoto, Actions: []openflow.Action{openflow.Group{ID: 1}}, Cookie: "viagroup"})
	errs := verify.Errors(verify.Switch(sw, verify.Options{}))
	if len(errs) != 2 {
		t.Fatalf("want 2 errors (rule port + bucket port), got %v", errs)
	}
}

func TestVerifyGroupLoop(t *testing.T) {
	sw := brokenSwitch()
	sw.AddGroup(&openflow.GroupEntry{ID: 1, Type: openflow.GroupIndirect, Buckets: []openflow.Bucket{
		{Actions: []openflow.Action{openflow.Group{ID: 2}}},
	}})
	sw.AddGroup(&openflow.GroupEntry{ID: 2, Type: openflow.GroupIndirect, Buckets: []openflow.Bucket{
		{Actions: []openflow.Action{openflow.Group{ID: 1}}},
	}})
	sw.AddFlow(0, &openflow.FlowEntry{Priority: 1, Match: openflow.MatchAll(),
		Goto: openflow.NoGoto, Actions: []openflow.Action{openflow.Group{ID: 1}}, Cookie: "entry"})
	errs := verify.Errors(verify.Switch(sw, verify.Options{}))
	found := false
	for _, e := range errs {
		if strings.Contains(e.Detail, "loop") {
			found = true
		}
	}
	if !found {
		t.Fatalf("group loop not detected: %v", errs)
	}
}

// TestVerifySharedListsReportedPerBucket: buckets may share one action
// list, and a clean list is scanned once — but a list with a finding is
// reported against every bucket that holds it, and a shared list naming a
// group still closes a loop through each of its holders.
func TestVerifySharedListsReportedPerBucket(t *testing.T) {
	sw := brokenSwitch()
	bad := []openflow.Action{openflow.Output{Port: 99}}
	good := []openflow.Action{openflow.Output{Port: 1}}
	back := []openflow.Action{openflow.Group{ID: 1}}
	sw.AddGroup(&openflow.GroupEntry{ID: 1, Type: openflow.GroupAll, Buckets: []openflow.Bucket{
		{WatchPort: 1, Actions: good}, {WatchPort: 1, Actions: bad}, {WatchPort: 1, Actions: good},
		{WatchPort: 1, Actions: bad}, {Actions: []openflow.Action{openflow.Group{ID: 2}}},
	}})
	sw.AddGroup(&openflow.GroupEntry{ID: 2, Type: openflow.GroupAll, Buckets: []openflow.Bucket{
		{WatchPort: 1, Actions: good}, {WatchPort: 2, Actions: back}, {WatchPort: 2, Actions: back},
	}})
	sw.AddFlow(0, &openflow.FlowEntry{Priority: 1, Match: openflow.MatchAll(),
		Goto: openflow.NoGoto, Actions: []openflow.Action{openflow.Group{ID: 1}}, Cookie: "entry"})
	var got []string
	for _, e := range verify.Errors(verify.Switch(sw, verify.Options{})) {
		got = append(got, e.Detail)
	}
	want := []string{
		"group 1 bucket 1 outputs to invalid port 99",
		"group 1 bucket 3 outputs to invalid port 99",
		"group chaining loop through group 1",
		"group chaining loop through group 1",
	}
	if !slices.Equal(got, want) {
		t.Fatalf("errors %q, want %q", got, want)
	}
}

func TestVerifyFFWithoutTerminalBucket(t *testing.T) {
	sw := brokenSwitch()
	sw.AddGroup(&openflow.GroupEntry{ID: 1, Type: openflow.GroupFF, Buckets: []openflow.Bucket{
		{WatchPort: 1, Actions: []openflow.Action{openflow.Output{Port: 1}}},
	}})
	sw.AddFlow(0, &openflow.FlowEntry{Priority: 1, Match: openflow.MatchAll(),
		Goto: openflow.NoGoto, Actions: []openflow.Action{openflow.Group{ID: 1}}, Cookie: "ff"})
	issues := verify.Switch(sw, verify.Options{})
	found := false
	for _, i := range issues {
		if i.Severity == verify.Warn && strings.Contains(i.Detail, "no unconditional bucket") {
			found = true
		}
	}
	if !found {
		t.Fatalf("FF liveness gap not flagged: %v", issues)
	}
}

func TestVerifyTagBounds(t *testing.T) {
	sw := brokenSwitch()
	big := openflow.Field{Name: "big", Off: 30, Bits: 8} // ends at bit 38 > 4 bytes
	sw.AddFlow(0, &openflow.FlowEntry{Priority: 1,
		Match: openflow.MatchAll().WithField(big, 1),
		Goto:  openflow.NoGoto,
		Actions: []openflow.Action{
			openflow.SetField{F: big, Value: 2},
			openflow.Output{Port: 1},
		}, Cookie: "oob"})
	errs := verify.Errors(verify.Switch(sw, verify.Options{TagBytes: 4}))
	if len(errs) != 2 {
		t.Fatalf("want 2 tag-bound errors (match + set), got %v", errs)
	}
	// Without a tag bound the same config is clean.
	if errs := verify.Errors(verify.Switch(sw, verify.Options{})); len(errs) != 0 {
		t.Fatalf("unbounded check should pass: %v", errs)
	}
}

func TestVerifyShadowingSemantics(t *testing.T) {
	sw := brokenSwitch()
	f := openflow.Field{Name: "x", Off: 0, Bits: 4}
	// hi is strictly more general and higher priority: it makes lo dead,
	// but constraining fewer dimensions is the deliberate-override shape,
	// so the finding is an Info override, not a shadow warning.
	sw.AddFlow(0, &openflow.FlowEntry{Priority: 10, Match: openflow.MatchEth(5),
		Goto: openflow.NoGoto, Cookie: "hi"})
	sw.AddFlow(0, &openflow.FlowEntry{Priority: 5, Match: openflow.MatchEth(5).WithField(f, 3),
		Goto: openflow.NoGoto, Cookie: "lo"})
	// unrelated does not shadow (different EthType).
	sw.AddFlow(0, &openflow.FlowEntry{Priority: 1, Match: openflow.MatchEth(6),
		Goto: openflow.NoGoto, Cookie: "other"})
	issues := verify.Switch(sw, verify.Options{})
	overridden := map[string]bool{}
	for _, i := range issues {
		if strings.Contains(i.Detail, "shadowed") {
			t.Errorf("broader override misreported as shadow: %s", i)
		}
		if i.Severity == verify.Info && strings.Contains(i.Detail, "overridden") {
			overridden[i.Cookie] = true
		}
	}
	if !overridden["lo"] || overridden["other"] || overridden["hi"] {
		t.Fatalf("override set wrong: %v", overridden)
	}
	// Masked-field implication: hi pins the low 2 bits, lo pins all 4
	// with an agreeing value -> shadowed.
	sw2 := brokenSwitch()
	sw2.AddFlow(0, &openflow.FlowEntry{Priority: 10,
		Match: openflow.MatchAll().WithMasked(f, 0b11, 0b11), Goto: openflow.NoGoto, Cookie: "hi"})
	sw2.AddFlow(0, &openflow.FlowEntry{Priority: 5,
		Match: openflow.MatchAll().WithField(f, 0b0111), Goto: openflow.NoGoto, Cookie: "lo"})
	sw2.AddFlow(0, &openflow.FlowEntry{Priority: 4,
		Match: openflow.MatchAll().WithField(f, 0b0100), Goto: openflow.NoGoto, Cookie: "disagree"})
	issues = verify.Switch(sw2, verify.Options{})
	shadowed := map[string]bool{}
	for _, i := range issues {
		if strings.Contains(i.Detail, "shadowed") {
			shadowed[i.Cookie] = true
		}
	}
	if !shadowed["lo"] || shadowed["disagree"] {
		t.Fatalf("masked shadow set wrong: %v", shadowed)
	}
}
