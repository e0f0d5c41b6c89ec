#!/usr/bin/env bash
# simlint_negative.sh — proves the linter bites.
#
# A static-analysis gate that never fires is indistinguishable from one
# that is broken, so CI runs this leg alongside the tree-clean gate: copy
# the repo to a scratch dir, then
#   1. seed one heap allocation into the hot ExecBatch loop and require
#      `go vet -vettool=simlint` to fail on it with the hotpath diagnostic;
#   2. seed one exported func that nothing calls into internal/openflow
#      and require the repository-wide exports test to fail and name it.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

tar -C "$root" --exclude=.git -cf - . | tar -C "$work" -xf -

# Seed the violation: one make() on the first line of ExecBatch.
sed -i 's|^func (sw \*Switch) ExecBatch(x \*ExecContext, in \[\]\*Packet, out \[\]Result) {$|&\n\t_ = make([]byte, 1)|' \
  "$work/internal/openflow/switch.go"
grep -q 'make(\[\]byte, 1)' "$work/internal/openflow/switch.go" || {
  echo "simlint_negative: failed to seed the allocation (ExecBatch signature changed?)" >&2
  exit 1
}

cd "$work"
go build -o "$work/simlint" ./tools/simlint

if out=$(GOFLAGS= go vet -vettool="$work/simlint" ./internal/openflow/ 2>&1); then
  echo "simlint_negative: vet PASSED on a seeded ExecBatch allocation — the linter is not biting" >&2
  echo "$out" >&2
  exit 1
fi
echo "$out" | grep -q '\[hotpath\]' || {
  echo "simlint_negative: vet failed but not with a hotpath finding:" >&2
  echo "$out" >&2
  exit 1
}
echo "$out" | grep -q 'heap allocation (make)' || {
  echo "simlint_negative: hotpath finding is not the seeded make():" >&2
  echo "$out" >&2
  exit 1
}
echo "simlint negative smoke: seeded ExecBatch allocation correctly flagged"

# Seed the unused export, then run the module-wide exports check.
printf '\n// SeededUnused has no caller.\nfunc SeededUnused() int { return 0 }\n' >> "$work/internal/openflow/switch.go"
if out=$(GOFLAGS= go test -count=1 -run '^TestRepositoryExportsHaveNonTestUsers$' ./tools/internal/simlint/ 2>&1); then
  echo "simlint_negative: the exports test PASSED with an unused export seeded — the check is not biting" >&2
  echo "$out" >&2
  exit 1
fi
echo "$out" | grep -q 'exported func openflow.SeededUnused has no non-test user' || {
  echo "simlint_negative: the exports test failed but did not name the seeded func:" >&2
  echo "$out" >&2
  exit 1
}
echo "simlint negative smoke: seeded unused export correctly flagged"
