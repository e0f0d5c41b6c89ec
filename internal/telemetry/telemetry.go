// Package telemetry is the always-on instrumentation core of the
// simulator: one plain-integer counter set with log-linear latency
// histograms, and a fixed-size flight recorder, all built on the standard
// library alone and all allocation-free on their record paths.
//
// There is one counter set type, Counters, and one fold, Counters.Add:
//
//   - Every lane of a network records into its own staging Counters.
//     Recording is an integer increment or a bucket bump — no atomics, no
//     locks, no time.Now except on a 1-in-64 sample of events.
//   - At the end of each Run the network folds the staging into its own
//     totals under a network mutex (Network.Telemetry reads them) and
//     into the process sum (ProcessSnap reads that).
//   - Scrapers read only folded totals, so they never race the hot loop.
//
// The process tier keeps only what no network owns: packet-pool misses
// (counted where the shared freelist allocates) and the sweep runner's
// series.
//
// The flight recorder (see flight.go) is the post-mortem complement: a
// fixed ring of recent data-plane events that costs a struct store per
// record when nobody is looking and dumps structured JSONL when a sweep
// errors, an oracle diverges, or an install is rejected.
package telemetry
