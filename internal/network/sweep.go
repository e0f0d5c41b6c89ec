package network

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"smartsouth/internal/telemetry"
)

// Sweep runs n independent jobs across a bounded worker pool and returns
// the join of their errors (nil when all succeed).
//
// Each job must be self-contained: build its own Network (or deployment),
// run it, and record results into caller-owned per-index storage. A
// Network and its Sim are single-goroutine structures — they must never be
// shared between jobs — but independent networks compose freely: the only
// process-global state on the hot path is the packet freelist, which is a
// sync.Pool and safe under concurrency. Within one job the simulation is
// exactly as deterministic as a sequential run; only the interleaving
// *between* jobs varies, which is unobservable as long as jobs do not
// share state.
//
// workers <= 0 selects GOMAXPROCS. With workers == 1 (or n == 1) the jobs
// run sequentially on the calling goroutine in index order, which is the
// reference behaviour parallel runs are compared against.
func Sweep(n, workers int, job func(i int) error) error {
	return SweepWith(n, workers,
		func(int) struct{} { return struct{}{} },
		func(_ struct{}, i int) error { return job(i) })
}

// SweepWith is Sweep with per-worker reusable state: each live worker
// calls newState once — typically building a deployed network plus
// whatever scratch the jobs need — and every job that worker picks up
// receives that same value. At 10k+ switches, building a network and
// installing its programs costs far more than running one measurement,
// so rebuilding per iteration makes setup dominate the sweep; one
// network per worker amortizes the setup across all iterations that
// worker executes.
//
// Jobs on one worker run sequentially, so mutating the state between
// iterations is safe as long as each job resets what it measures
// (accounting, runtime stats, inboxes) — the monitoring-loop idiom:
// reset, trigger, run, collect. Jobs must not assume which worker — and
// therefore which state value — a given index lands on: with more than
// one worker the assignment is a race by design, so any per-index output
// must depend only on the index, not on the state's history.
//
// newState receives the worker index w in [0, workers); the sequential
// path uses a single state built with w == 0.
func SweepWith[S any](n, workers int, newState func(w int) S, job func(st S, i int) error) error {
	if n <= 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	errs := make([]error, n)
	m := &telemetry.Sweeps
	m.Start(workers)
	//simlint:ignore determinism: wall-clock sample feeds telemetry only, never the sim
	sweepStart := time.Now()
	if workers == 1 {
		st := newState(0)
		for i := 0; i < n; i++ {
			//simlint:ignore determinism: wall-clock sample feeds telemetry only, never the sim
			t0 := time.Now()
			errs[i] = job(st, i)
			//simlint:ignore determinism: wall-clock sample feeds telemetry only, never the sim
			m.NoteJob(0, time.Since(t0).Nanoseconds())
		}
		//simlint:ignore determinism: wall-clock sample feeds telemetry only, never the sim
		m.WallNs.Add(time.Since(sweepStart).Nanoseconds())
		return errors.Join(errs...)
	}
	// Dynamic work stealing via a shared counter: jobs vary wildly in cost
	// (a Ring(240) sweep dwarfs a Ring(20) one), so pre-partitioning the
	// index space would leave workers idle behind the largest stratum.
	// Per-worker busy time and job counts feed the utilization telemetry:
	// a worker whose busy time is far below the sweep wall time is idling
	// behind a straggler.
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			st := newState(w)
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				//simlint:ignore determinism: wall-clock sample feeds telemetry only, never the sim
				t0 := time.Now()
				errs[i] = job(st, i)
				//simlint:ignore determinism: wall-clock sample feeds telemetry only, never the sim
				m.NoteJob(w, time.Since(t0).Nanoseconds())
			}
		}(w)
	}
	wg.Wait()
	//simlint:ignore determinism: wall-clock sample feeds telemetry only, never the sim
	m.WallNs.Add(time.Since(sweepStart).Nanoseconds())
	return errors.Join(errs...)
}
