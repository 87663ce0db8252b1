#!/usr/bin/env bash
# Fails when an alternative of a `go test -run '...'` pattern in the CI
# workflow matches no test, benchmark, fuzz target or example of the
# packages its step names, so a deleted or renamed test cannot leave a step
# silently running nothing. Run from the repository root:
#
#	bash .github/check-run-patterns.sh [workflow.yml]
set -euo pipefail
wf=${1:-.github/workflows/ci.yml}
status=0
while IFS= read -r line; do
	pattern=$(sed -E "s/.*-run '([^']*)'.*/\1/" <<<"$line")
	read -ra pkgs <<<"$(grep -oE '\./[^ ]+' <<<"$line" | tr '\n' ' ')"
	names=$(go test -list '.*' "${pkgs[@]}" | grep -E '^(Test|Benchmark|Fuzz|Example)' || true)
	IFS='|' read -ra alts <<<"$pattern"
	for alt in "${alts[@]}"; do
		if ! grep -qE -- "$alt" <<<"$names"; then
			echo "$wf: -run alternative '$alt' matches no test in ${pkgs[*]}" >&2
			status=1
		fi
	done
done < <(grep -E "go test .*-run '" "$wf")
exit $status
