// Package simlint is the engine behind the repo's `go vet -vettool`
// static-analysis suite. It mechanizes the simulator's hand-maintained
// engine invariants so refactors cannot silently break them:
//
//   - hotpath: functions annotated //simlint:hotpath (the zero-alloc
//     pipeline: ExecBatch, FlowTable.Lookup, the compiled matcher walk,
//     the telemetry Counter record path, the flight-ring claim) must not
//     heap-allocate, defer, range over maps, box into interfaces, or
//     call functions that do — checked path-completely, transitively
//     through same-package callees and, via vet facts, across packages.
//   - laneaffinity: fields marked //simlint:lanelocal (the sharded
//     simulator's per-lane heap, scratch, counters and flight ring) may
//     only be touched from methods of their struct or from functions
//     annotated //simlint:barrier — the static complement of the
//     schedule-dependent race detector.
//   - determinism: in packages marked //simlint:deterministic, flag
//     wall-clock reads (time.Now/Since/Until), global math/rand, and
//     map iteration whose order can feed emissions or output — the
//     exact bug class the determinism goldens pin.
//   - pool: poollint's original pooled-packet discipline (use after
//     Release, double Release, discarded ClonePooled).
//   - poolown: the PR 7 batch-API extension of pool — releasing an
//     ExecBatch input without consulting Result.StoleInput, and using
//     inbox packets after ClearInbox recycled them.
//
// Any diagnostic can be suppressed with a reasoned escape hatch,
// `//simlint:ignore reason` (optionally scoped: `//simlint:ignore
// hotpath: reason`), placed on the flagged line or the line above. An
// ignore without a reason is itself a diagnostic. docs/LINTS.md
// catalogues every invariant, its failure mode and its suppression.
package simlint

import (
	"fmt"
	"go/token"
	"sort"
)

// Analyzer names, in reporting order. These are the values accepted by
// scoped ignore directives and by the drivers' analyzer selection.
const (
	AnalyzerHotpath      = "hotpath"
	AnalyzerLaneAffinity = "laneaffinity"
	AnalyzerDeterminism  = "determinism"
	AnalyzerPool         = "pool"
	AnalyzerPoolOwn      = "poolown"
)

// AllAnalyzers lists every analyzer in the suite.
var AllAnalyzers = []string{
	AnalyzerHotpath,
	AnalyzerLaneAffinity,
	AnalyzerDeterminism,
	AnalyzerPool,
	AnalyzerPoolOwn,
}

// Diagnostic is one finding, positioned for vet's file:line:col output.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// Run executes the named analyzers over one loaded unit and returns the
// surviving diagnostics: suppressions (//simlint:ignore) are applied,
// malformed ignore directives are reported, and the result is sorted by
// position for deterministic output.
func Run(u *Unit, analyzers []string) []Diagnostic {
	var diags []Diagnostic
	for _, a := range analyzers {
		switch a {
		case AnalyzerHotpath:
			diags = append(diags, runHotpath(u)...)
		case AnalyzerLaneAffinity:
			diags = append(diags, runLaneAffinity(u)...)
		case AnalyzerDeterminism:
			diags = append(diags, runDeterminism(u)...)
		case AnalyzerPool:
			diags = append(diags, runPool(u)...)
		case AnalyzerPoolOwn:
			diags = append(diags, runPoolOwn(u)...)
		}
	}
	diags = append(diags, u.pragmas.badIgnores()...)
	diags = u.pragmas.suppress(diags)
	sortDiags(diags)
	return dedupe(diags)
}

// sortDiags orders by file, line, column, analyzer for stable output.
func sortDiags(ds []Diagnostic) {
	sort.SliceStable(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}

// dedupe removes identical findings (the same op reached through two
// hot roots, say); input must be sorted.
func dedupe(ds []Diagnostic) []Diagnostic {
	out := ds[:0]
	for i, d := range ds {
		if i > 0 && d == ds[i-1] {
			continue
		}
		out = append(out, d)
	}
	return out
}
