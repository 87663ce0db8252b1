#!/usr/bin/env bash
# Fails when the CI workflow or the docs name something that does not exist:
#
#   - an alternative of a `go test -run '...'` pattern in the workflow
#     matches no test, benchmark, fuzz target or example of the packages its
#     step names, so a deleted or renamed test cannot leave a step silently
#     running nothing (`-run '^$'`, which a benchmark-only step uses to run
#     no test on purpose, is the one pattern exempt);
#   - a Test..., Benchmark... or Fuzz... name cited in DESIGN.md, README.md
#     or EXPERIMENTS.md is unknown to `go test -list` in every package;
#   - a backticked `layer.metric` in those docs whose layer is a per-layer
#     prefix of BENCHMARK.json is not a BENCHMARK.json metric;
#   - a flag that `provd -h` prints is missing from README.md or the verify
#     skill (.claude/skills/verify/SKILL.md), or one of them names a provd
#     or provbench flag that `provd -h` or `provbench -h` does not print
#     (see docflags).
#
# Run from the repository root:
#
#	bash .github/check-run-patterns.sh [workflow.yml]
set -euo pipefail
wf=${1:-.github/workflows/ci.yml}
docs=(DESIGN.md README.md EXPERIMENTS.md)
status=0
fail() {
	echo "$*" >&2
	status=1
}

tests() { go test -list '.*' "$@" | grep -E '^(Test|Benchmark|Fuzz|Example)' || true; }

# docflags PROG DOC prints each flag of command PROG that DOC names: the
# flags of every PROG command line (after the word PROG, up to a backtick,
# # or &, backslash continuations included) and, for provd, the flag column
# of a "| `-flag` |" table row and the backticked flags of the list that
# starts at "(`provd -h`" and runs to the next bullet or blank line.
docflags() {
	awk -v prog="$1" '
		function flags(s, re) {
			while (match(s, re)) {
				f = substr(s, RSTART, RLENGTH)
				sub(/^[^-]*/, "", f)
				if (f != "-h") print f
				s = substr(s, RSTART + RLENGTH)
			}
		}
		list && (/^$/ || /^- /) { list = 0 }
		prog == "provd" && /\(`provd -h`/ { list = 1 }
		list { flags($0, "`-[a-z][a-z0-9-]*") }
		/^\| `-[a-z]/ { if (prog == "provd") flags($0, "`-[a-z][a-z0-9-]*"); next }
		cmd { s = $0 }
		!cmd && match($0, "(^|[^a-z])" prog "([^a-z-]|$)") { s = substr($0, RSTART + RLENGTH - 1); cmd = 1 }
		cmd {
			cont = /\\$/
			sub(/[`#&].*/, "", s)
			flags(s, "(^|[ (])-[a-z][a-z0-9-]*")
			cmd = cont
		}
	' "$2" | sort -u
}

while IFS= read -r line; do
	pattern=$(sed -E "s/.*-run '([^']*)'.*/\1/" <<<"$line")
	[ "$pattern" = '^$' ] && continue
	read -ra pkgs <<<"$(grep -oE '\./[^ ]+' <<<"$line" | tr '\n' ' ')"
	names=$(tests "${pkgs[@]}")
	IFS='|' read -ra alts <<<"$pattern"
	for alt in "${alts[@]}"; do
		grep -qE -- "$alt" <<<"$names" || fail "$wf: -run alternative '$alt' matches no test in ${pkgs[*]}"
	done
done < <(grep -E "go test .*-run '" "$wf")

all=$(tests ./...)
for doc in "${docs[@]}"; do
	for name in $(grep -oE '\b(Test|Benchmark|Fuzz)[A-Z0-9_][A-Za-z0-9_]*' "$doc" | sort -u); do
		grep -qxF "$name" <<<"$all" || fail "$doc: $name is not a test in go test -list ./..."
	done
done

metrics=$(grep -oE '"name": "[a-z]+\.[a-z0-9_]+"' BENCHMARK.json | cut -d'"' -f4)
layers=$(cut -d. -f1 <<<"$metrics" | sort -u)
for doc in "${docs[@]}"; do
	for m in $(grep -oE '`[a-z]+\.[a-z0-9_]+`' "$doc" | tr -d '`' | sort -u); do
		case ${m#*.} in go | md | json | sh | yml | txt | csv) continue ;; esac
		grep -qxF "${m%%.*}" <<<"$layers" || continue
		grep -qxF "$m" <<<"$metrics" || fail "$doc: \`$m\` is not a metric in BENCHMARK.json"
	done
done

for prog in provd provbench; do
	flags=$(go run ./cmd/$prog -h 2>&1 | grep -oE '^  -[a-z-]+' | tr -d ' ' || true)
	[ -n "$flags" ] || fail "$prog -h printed no flags"
	for doc in README.md .claude/skills/verify/SKILL.md; do
		if [ "$prog" = provd ]; then
			for f in $flags; do
				grep -qE -- "(^|[^a-z-])$f([^a-z-]|$)" "$doc" || fail "$doc: provd flag $f is not documented"
			done
		fi
		for f in $(docflags "$prog" "$doc"); do
			grep -qxF -- "$f" <<<"$flags" || fail "$doc: names $prog flag $f, which $prog -h does not print"
		done
	done
done
exit $status
