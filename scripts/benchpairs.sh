#!/bin/sh
# Paired benchmark runs of a parent commit against the working tree, judged
# by the rules at the end of bench/README.md. Run from anywhere:
#
#   scripts/benchpairs.sh PARENT WORKLOAD [PAIRS]
#   make bench-pairs PARENT=<sha> WORKLOAD=<name> [PAIRS=10]
#
# PARENT is a commit, checked out into a temporary git worktree (or a
# directory that already holds the parent's tree, used as it is). Pair i runs
# `go run ./bench -workload WORKLOAD -seed SEED+i-1 -seconds BENCH_SECONDS` on both
# sides, the parent first in odd pairs, the change first in even ones.
# Environment: SEED (default 101), BENCH_SECONDS (default 13), CLAIM (an
# end-to-end metric whose gain is claimed; its row is judged as a claim).
#
# Prints, per end-to-end metric of BENCHMARK.json, each side's median
# [q1, q3], the change against the parent's median, the paired view — the
# median [min, max] over pairs of (change - parent) / parent, which a shift
# smaller than one side's spread across seeds still shows when every pair
# moves — wins/ties, and a verdict:
#   gain        the change won >= 9/10 of the pairs (ties count for neither)
#               and the medians differ by more than the parent's q3-q1
#   ok          the change's median is no worse than the parent's by more
#               than the metric's bound
#   WORSE       it is worse by more than the bound
#   unresolved  a side's (q3-q1)/median is wider than the bound
#   NOT MET     the row is the CLAIM and is not a gain
# Exits non-zero on WORSE, NOT MET, or a run with failed steps.
set -eu
if [ $# -lt 2 ]; then
	sed -n '2,27p' "$0" >&2
	exit 2
fi
parent=$1 workload=$2 pairs=${3:-10}
seed0=${SEED:-101} seconds=${BENCH_SECONDS:-13} claim=${CLAIM:-}
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"

tmp=$(mktemp -d)
if [ -d "$parent" ]; then
	ptree=$(cd "$parent" && pwd)
	trap 'rm -rf "$tmp"' EXIT
else
	ptree=$tmp/parent
	git worktree add --detach "$ptree" "$parent" >/dev/null
	trap 'git worktree remove --force "$ptree"; rm -rf "$tmp"' EXIT
fi

# run SIDE DIR SEED appends "SIDE SEED <the run's JSON line>" to $tmp/runs.
run() {
	line=$(cd "$2" && go run ./bench -workload "$workload" -seed "$3" -seconds "$seconds" 2>>"$tmp/log" | tail -n 1)
	if [ -z "$line" ]; then
		echo "benchpairs: $1 run of seed $3 printed no result; its log:" >&2
		tail -n 20 "$tmp/log" >&2
		exit 1
	fi
	echo "$1 $3 $line" >>"$tmp/runs"
	echo "  $1 seed $3: $line" >&2
}

i=1
while [ "$i" -le "$pairs" ]; do
	seed=$((seed0 + i - 1))
	echo "pair $i of $pairs" >&2
	if [ $((i % 2)) -eq 1 ]; then
		run parent "$ptree" "$seed"
		run change "$root" "$seed"
	else
		run change "$root" "$seed"
		run parent "$ptree" "$seed"
	fi
	i=$((i + 1))
done

awk -v workload="$workload" -v claim="$claim" '
function field(s, key,    re) {          # the number after "key": in s
	re = "\"" key "\":[-+0-9.eE]+"
	if (!match(s, re)) return "nan"
	return substr(s, RSTART + length(key) + 3, RLENGTH - length(key) - 3) + 0
}
function sorted(side, m, out,    n, i, j, t) {
	n = 0
	for (i = 1; i <= runs[side]; i++) out[++n] = val[side, m, i]
	sortarr(out, n)
	return n
}
function sortarr(a, n,    i, j, t) {
	for (i = 2; i <= n; i++) { t = a[i]; for (j = i - 1; j >= 1 && a[j] > t; j--) a[j+1] = a[j]; a[j+1] = t }
}
function quart(s, n, k,    pos, lo) {     # exclusive method, as bench/suite.go
	pos = k * (n + 1) / 4; lo = int(pos)
	if (lo < 1) return s[1]
	if (lo >= n) return s[n]
	return s[lo] + (pos - lo) * (s[lo+1] - s[lo])
}
# BENCHMARK.json: the end_to_end entries carry name, better and bound.
FILENAME == "BENCHMARK.json" {
	if ($0 ~ /"end_to_end"/) e2e = 1
	if ($0 ~ /"per_layer"/) e2e = 0
	if (e2e && match($0, /"name": *"[^"]+"/)) { name = $0; sub(/.*"name": *"/, "", name); sub(/".*/, "", name); higher[name] = 0 }
	if (e2e && $0 ~ /"better": *"higher"/) higher[name] = 1
	if (e2e && match($0, /"bound": *[0-9.]+/)) { b = substr($0, RSTART, RLENGTH); sub(/.*: */, "", b); bound[name] = b + 0; order[++nm] = name }
	next
}
{
	side = $1; r = ++runs[side]
	failed = field($0, "failed")
	if (failed != 0) { printf "benchpairs: %s run of seed %s reports failed=%s\n", side, $2, failed; bad = 1 }
	for (k = 1; k <= nm; k++) {
		m = order[k]; s = $0; sub(".*\"" m "\":\\{", "", s)
		val[side, m, r] = field(s, "value")
	}
}
END {
	n = runs["parent"]
	printf "%s: %d pairs, parent vs change%s\n", workload, n, n < 10 ? " (a claim needs at least 10)" : ""
	printf "%-12s %-30s %-30s %8s %-25s %9s %6s  %s\n", "metric", "parent median [q1, q3]", "change median [q1, q3]", "change", "per pair [min, max]", "wins/ties", "bound", "verdict"
	for (k = 1; k <= nm; k++) {
		m = order[k]
		sorted("parent", m, P); sorted("change", m, C)
		pm = quart(P, n, 2); cm = quart(C, n, 2)
		piqr = quart(P, n, 3) - quart(P, n, 1); ciqr = quart(C, n, 3) - quart(C, n, 1)
		wins = ties = 0
		for (i = 1; i <= n; i++) {
			d = val["parent", m, i] - val["change", m, i]; if (higher[m]) d = -d
			if (d > 0) wins++; else if (d == 0) ties++
			R[i] = val["parent", m, i] ? (val["change", m, i] - val["parent", m, i]) / val["parent", m, i] : 0
		}
		sortarr(R, n)
		rel = (cm - pm) / pm; worse = higher[m] ? -rel : rel
		gain = (wins >= 0.9 * n && -worse * pm > piqr)
		if (piqr / pm > bound[m] || ciqr / cm > bound[m]) verdict = "unresolved"
		else if (worse > bound[m]) { verdict = "WORSE"; bad = 1 }
		else verdict = "ok"
		if (gain) verdict = "gain"
		else if (m == claim) { verdict = "NOT MET (claimed)"; bad = 1 }
		printf "%-12s %-30s %-30s %+7.1f%% %-25s %6d/%-2d %5.0f%%  %s\n", m,
			sprintf("%.4g [%.4g, %.4g]", pm, quart(P, n, 1), quart(P, n, 3)),
			sprintf("%.4g [%.4g, %.4g]", cm, quart(C, n, 1), quart(C, n, 3)),
			100 * rel, sprintf("%+.1f%% [%+.1f%%, %+.1f%%]", 100 * quart(R, n, 2), 100 * R[1], 100 * R[n]),
			wins, ties, 100 * bound[m], verdict
	}
	exit bad
}' BENCHMARK.json "$tmp/runs"
