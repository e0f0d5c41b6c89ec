#!/usr/bin/env bash
# Stability check: the full untraced suite as two independent sets of N runs
# per workload (seeds 1..N, default 10). Prints both medians, their gap and
# the quartile spread of every (metric, workload), and exits non-zero when a
# spread or a gap exceeds the metric's bound or a simulated count differs.
set -euo pipefail
exec bash "$(dirname "$0")/run.sh" -repeat "${1:-10}"
