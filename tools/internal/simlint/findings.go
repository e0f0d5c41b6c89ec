package simlint

import (
	"fmt"

	"smartsouth/internal/verify"
)

// ToFindings bridges simlint diagnostics into the oflint findings
// codec, so `simlint -json` output is consumable by the same tooling
// that reads `oflint -json`: Kind carries the analyzer
// ("simlint-hotpath", ...), the deployment coordinates are -1 (these
// are source findings, not switch findings), and Detail carries the
// position and message.
func ToFindings(diags []Diagnostic) []verify.Finding {
	fs := make([]verify.Finding, 0, len(diags))
	for _, d := range diags {
		fs = append(fs, verify.Finding{
			Kind:     verify.Kind("simlint-" + d.Analyzer),
			Severity: verify.Err,
			Service:  "simlint",
			Slot:     -1,
			Switch:   -1,
			Table:    -1,
			Detail:   fmt.Sprintf("%s: %s", d.Pos, d.Message),
		})
	}
	return fs
}
