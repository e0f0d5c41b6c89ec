package core

import (
	"fmt"

	"smartsouth/internal/network"
)

// Supervisor is the controller-side mitigation for the paper's stated
// limitation: "we will assume that during the execution of SmartSouth, no
// more failures will occur. This limitation can be overcome by using e.g.
// mechanisms presented in [3]." A failure mid-traversal can strand the
// trigger packet (the DFS state in the packet references ports that died
// after being recorded), so the supervisor simply re-triggers with a
// fresh packet after a deadline: each new attempt carries fresh state and
// the fast-failover groups route it around everything that is *already*
// failed. As long as failures eventually stop and the root's component
// stays connected, some attempt completes.
type Supervisor struct {
	// Deadline is the per-attempt completion budget in simulated time
	// (default: 4(E+2) link delays, twice the worst-case sweep).
	Deadline network.Time
	// MaxAttempts bounds the retries (default 5).
	MaxAttempts int
}

// arrived scans an inbox-like report count through the provided probe.
type reportProbe func() bool

// run drives trigger/probe rounds until the probe reports success.
func (s Supervisor) run(c ControlPlane, trigger func(at network.Time), done reportProbe, kind string) (attempts int, err error) {
	deadline := s.Deadline
	if deadline <= 0 {
		deadline = network.Time(4 * 1000 * 1000) // 4ms: generous for any sweep at 1µs links
	}
	max := s.MaxAttempts
	if max <= 0 {
		max = 5
	}
	for attempts = 1; attempts <= max; attempts++ {
		trigger(c.Now() + 1)
		if _, err := c.RunNetwork(); err != nil {
			return attempts, err
		}
		if done() {
			return attempts, nil
		}
		// The attempt was swallowed (mid-flight failure or blackhole);
		// let the deadline pass in simulated time and retry. In the
		// discrete-event world RunNetwork already drained everything, so
		// the retry can go out immediately.
		_ = deadline
	}
	return attempts - 1, fmt.Errorf("core: %s did not complete within %d attempts", kind, max)
}

// SnapshotWithRetry triggers the snapshot at root and retries with fresh
// packets until a report arrives. It returns the decoded snapshot and the
// number of attempts used.
func (s Supervisor) SnapshotWithRetry(snap *Snapshot, root int) (*Result, int, error) {
	var res *Result
	attempts, err := s.run(snap.ctl, func(at network.Time) {
		snap.ctl.ClearInbox()
		snap.Trigger(root, at)
	}, func() bool {
		r, derr := snap.Collect()
		if derr != nil || r == nil {
			return false
		}
		res = r
		return true
	}, "snapshot")
	return res, attempts, err
}

// CriticalWithRetry drives a criticality check until a verdict arrives.
func (s Supervisor) CriticalWithRetry(cr *Critical, node int) (critical bool, attempts int, err error) {
	attempts, err = s.run(cr.ctl, func(at network.Time) {
		cr.ctl.ClearInbox()
		cr.Check(node, at)
	}, func() bool {
		c, ok := cr.Verdict()
		critical = c
		return ok
	}, "critical check")
	return critical, attempts, err
}
