#!/usr/bin/env bash
# doclinks.sh — every repository path the docs name in backticks must exist.
#
# The inventories in DESIGN.md and the file references in the other
# top-level docs rot silently when a file is renamed or deleted. This
# check reads README.md, DESIGN.md, PERFORMANCE.md, EXPERIMENTS.md and
# docs/*.md, takes every backticked token that reads as a path into this
# repository, and fails if it names nothing:
#
#   - `dir/...` whose first segment is a top-level directory, or a package
#     directory under internal/ (DESIGN.md writes `core/template.go`);
#   - a bare file name (`matcher.go`, `BENCH_pr10.json`): at the root, or
#     any tracked file of that name;
#   - `*` globs must match something; paths .gitignore covers (build and
#     benchmark outputs) are taken as named on purpose, including ignored
#     directories that do not exist yet on a fresh checkout.
#
# Import paths (`sync/atomic`), URLs, flags, commands with spaces and
# benchmark names are not repository paths and are skipped.
set -euo pipefail
cd "$(dirname "$0")/.."

# One newline-framed string, matched in-process: a `printf | grep -q`
# pipe fails under pipefail whenever grep exits before printf is done.
tracked=$'\n'$(git ls-files)$'\n'
exists() { # path or glob, relative to the root
	# A directory-only ignore pattern (`out/`) matches a path that does not
	# exist only when it is spelled with the trailing slash.
	compgen -G "$1" >/dev/null || git check-ignore -q "$1" || git check-ignore -q "$1/"
}
bad=0
for doc in README.md DESIGN.md PERFORMANCE.md EXPERIMENTS.md docs/*.md; do
	while IFS= read -r tok; do
		p=${tok#./}
		p=${p%/}
		p=${p%%:[0-9]*} # file:line
		[[ $p =~ ^[A-Za-z0-9_.][A-Za-z0-9_./*-]*$ ]] || continue
		if [[ $p == */* ]]; then
			first=${p%%/*}
			if [[ -d $first ]]; then
				exists "$p" && continue
			elif [[ -d internal/$first ]]; then
				exists "internal/$p" && continue
			else
				continue # not a path into this repository
			fi
		else
			[[ $p =~ \.(go|md|sh|json|yml|conf|golden)$ ]] || continue
			exists "$p" && continue
			[[ $tracked == *"/$p"$'\n'* ]] && continue
		fi
		echo "$doc: \`$tok\` names no file in the repository" >&2
		bad=1
	done < <(grep -o '`[^` ]*`' "$doc" | tr -d '`' | sort -u)
done
exit $bad
