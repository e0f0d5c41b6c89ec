// simlint is the repo's multi-analyzer static-analysis suite, run as a
// go vet tool (-vettool). It mechanizes the simulator's engine
// invariants — the ones previously enforced only by AllocsPerRun spot
// checks, goldens and whatever schedules -race happened to see:
//
//	hotpath       //simlint:hotpath functions must be allocation-free
//	              on every path (no make/new/defer/go/map-range/boxing/
//	              dynamic calls), transitively through their callees.
//	laneaffinity  //simlint:lanelocal fields of the sharded simulator
//	              are only touched from owner methods or //simlint:barrier
//	              functions.
//	determinism   //simlint:deterministic packages don't read wall
//	              clocks, global math/rand, or leak map order into output.
//	pool          pooled-packet discipline (use-after-Release, double
//	              Release, discarded ClonePooled) — poollint v1.
//	poolown       the batch extensions: ExecBatch StoleInput stealing
//	              and controller ClearInbox recycling.
//
// Usage:
//
//	go build -o /tmp/simlint ./tools/simlint
//	go vet -vettool=/tmp/simlint ./...        # whole-tree, with facts
//	/tmp/simlint [-json] ./internal/network   # standalone spot check
//
// The module-wide exports check (an exported name under internal/ or
// tools/ needs a non-test user, or `//simlint:testapi reason` on its
// declaration) cannot run per vet unit; it runs as a test:
//
//	go test -run TestRepositoryExportsHaveNonTestUsers ./tools/internal/simlint
//
// Suppress a finding with `//simlint:ignore [analyzer:] reason` on the
// flagged line or the line above. Every invariant, its failure mode and
// its suppression etiquette is catalogued in docs/LINTS.md.
//
// Exit status: 0 clean, 2 when any diagnostic is reported.
package main

import "smartsouth/tools/internal/simlint"

func main() {
	simlint.Main()
}
