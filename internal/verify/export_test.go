package verify

import "smartsouth/internal/openflow"

// CheckComposed runs CheckDeployment's per-switch checks alone — phase 1
// and the per-switch half of phase 2 — over the composition of progs, in
// switch-ID order, each switch's findings most severe first: the order
// Switch reports in, switch after switch.
func CheckComposed(progs []*openflow.Program, opts Options) []Finding {
	a := newAnalyzer(progs, nil, opts)
	a.compose(true)
	return a.findings
}
