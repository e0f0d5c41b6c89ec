package verify

import (
	"slices"
	"sort"

	"smartsouth/internal/openflow"
)

// CheckProgram statically checks a compiled Program before anything is
// installed on a switch: each switch program is checked in place, as the
// configuration it would materialize to on an empty switch, by the same
// checker that verifies live switches. This is the "verify before
// install" half of the paper's X3 claim — a service's whole configuration
// can be rejected while it is still just data.
//
// Switches are checked in parallel; findings are assembled in switch-ID
// order.
//
// When opts.TagBytes is zero the program's own recorded tag budget is
// used, so tag-bound violations are caught without the caller having to
// thread the layout through.
func CheckProgram(p *openflow.Program, opts Options) []Issue {
	if opts.TagBytes == 0 {
		opts.TagBytes = p.TagBytes
	}
	ids := p.SwitchIDs()
	per := make([][]Issue, len(ids))
	openflow.EachSwitch(len(ids), func() func(int) {
		s := newScratch()
		return func(i int) { per[i] = s.check(s.programConfig(p.At(ids[i])), opts) }
	})
	all := slices.Concat(per...)
	sort.SliceStable(all, func(i, j int) bool {
		return all[i].Severity > all[j].Severity
	})
	return all
}
