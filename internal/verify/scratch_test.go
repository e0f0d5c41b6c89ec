package verify

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"testing"

	"smartsouth/internal/openflow"
)

// defectProgram builds a program over n switches that all use the same
// group IDs, cycling through three defects and a clean switch: a group
// chaining loop (1 -> 2 -> 1), a bucket naming a missing group, and a
// fast-failover group with no unconditional bucket. A check scratch that
// carried anything from one switch into the next — a group already
// "seen", a loop colour, a chain edge, a stale table — changes what the
// later switches report.
func defectProgram(n int) *openflow.Program {
	p := openflow.NewProgram("defects", 0)
	out := func(port int) []openflow.Action { return []openflow.Action{openflow.Output{Port: port}} }
	for sw := 0; sw < n; sw++ {
		p.Ensure(sw, 3)
		p.AddFlow(sw, 0, &openflow.FlowEntry{Priority: 10, Match: openflow.MatchEth(0x88b5),
			Actions: []openflow.Action{openflow.Group{ID: 1}}, Goto: openflow.NoGoto, Cookie: fmt.Sprintf("sw%d/in", sw)})
		switch sw % 4 {
		case 0:
			p.AddGroup(sw, &openflow.GroupEntry{ID: 1, Type: openflow.GroupIndirect,
				Buckets: []openflow.Bucket{{Actions: []openflow.Action{openflow.Group{ID: 2}}}}})
			p.AddGroup(sw, &openflow.GroupEntry{ID: 2, Type: openflow.GroupIndirect,
				Buckets: []openflow.Bucket{{Actions: []openflow.Action{openflow.Group{ID: 1}}}}})
		case 1:
			p.AddGroup(sw, &openflow.GroupEntry{ID: 1, Type: openflow.GroupIndirect,
				Buckets: []openflow.Bucket{{Actions: []openflow.Action{openflow.Group{ID: 9}}}}})
		case 2:
			p.AddGroup(sw, &openflow.GroupEntry{ID: 1, Type: openflow.GroupFF,
				Buckets: []openflow.Bucket{{WatchPort: 1, Actions: out(1)}, {WatchPort: 2, Actions: out(2)}}})
		case 3:
			p.AddGroup(sw, &openflow.GroupEntry{ID: 1, Type: openflow.GroupFF,
				Buckets: []openflow.Bucket{{WatchPort: 1, Actions: out(1)}, {WatchPort: openflow.WatchNone, Actions: out(3)}}})
			// A second table, so the next switch's view must drop it.
			p.AddFlow(sw, 2, &openflow.FlowEntry{Priority: 5, Match: openflow.MatchEth(0x88b5),
				Actions: out(4), Goto: openflow.NoGoto, Cookie: fmt.Sprintf("sw%d/bad", sw)})
		}
	}
	return p
}

// TestCheckProgramScratchMatchesFreshChecks: the parallel check, each
// worker reusing one scratch, must report exactly what checking every
// switch on a fresh scratch and concatenating in ID order reports.
func TestCheckProgramScratchMatchesFreshChecks(t *testing.T) {
	p := defectProgram(3*64 + 5)
	opts := Options{TagBytes: p.TagBytes, MaxGroupDepth: 8}
	var want []Finding
	for _, id := range p.SwitchIDs() {
		s := newScratch()
		want = append(want, s.check(s.compose([]part{{p, p.At(id)}}), opts)...)
	}
	sort.SliceStable(want, func(i, j int) bool { return want[i].Severity > want[j].Severity })
	kinds := map[string]bool{}
	for _, is := range want {
		kinds[is.Detail[:min(len(is.Detail), 18)]] = true
	}
	if len(kinds) < 4 {
		t.Fatalf("fixture reports too few kinds of finding: %v", kinds)
	}
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			got := CheckProgram(p, Options{})
			if !slices.Equal(got, want) {
				for i := range min(len(got), len(want)) {
					if got[i] != want[i] {
						t.Fatalf("finding %d: got %v, want %v", i, got[i], want[i])
					}
				}
				t.Fatalf("got %d findings, want %d", len(got), len(want))
			}
		})
	}
}
