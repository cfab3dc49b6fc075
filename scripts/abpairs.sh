#!/usr/bin/env bash
# Alternating parent/change pairs of the repository's benchmark, then its
# noise-aware comparison (the measuring rule of the choosing-metrics
# guide, §8: at least ten pairs, alternating which side runs first).
#
#   scripts/abpairs.sh <parent-ref> [N=10] [run.sh flags, e.g. --smoke]
#
# The parent's committed files are unpacked (git archive) under
# .bench_build/abpairs/ (ABPAIRS_DIR overrides; removed again on exit);
# the change is this checkout as it stands, committed or not. Pair i runs
# `bash bench/run.sh --runs 1 --seed S+i` on both sides (S = ABPAIRS_SEED,
# default 401), the parent first on odd pairs and the change first on even
# ones. Before each pair it prints scripts/spinratio's reading — how much
# longer two spinning goroutines take side by side than one alone, 1.0 on
# two free cores — so a pair taken while the host was short of a core is
# visible next to its numbers. Each side's one-run documents are
# concatenated (their `runs` arrays) into parent.json and change.json,
# `run.sh --compare` judges the two, and a table of pairs won and a count
# of runs with failed operations follow.
set -euo pipefail

if [ $# -lt 1 ]; then
	sed -n '2,20s/^# \{0,1\}//p' "${BASH_SOURCE[0]}" >&2
	exit 2
fi
parent_ref=$1
shift
pairs=10
if [ $# -gt 0 ] && [[ $1 =~ ^[0-9]+$ ]]; then
	pairs=$1
	shift
fi
seed0=${ABPAIRS_SEED:-401}

root=$(git -C "$(dirname "${BASH_SOURCE[0]}")" rev-parse --show-toplevel)
work=${ABPAIRS_DIR:-$root/.bench_build/abpairs}
parent=$work/parent
mkdir -p "$work"
rm -f "$work"/parent-*.json "$work"/change-*.json "$work/host.txt"

cleanup() { rm -rf "$parent" "$work/spinratio"; }
trap cleanup EXIT
cleanup # a copy left behind by an interrupted run
mkdir -p "$parent"
git -C "$root" archive "$parent_ref" | tar -x -C "$parent"
(cd "$root" && GOFLAGS=-buildvcs=false go build -o "$work/spinratio" ./scripts/spinratio)

# run_side <checkout> <side> <pair> [run.sh flags]: one one-run document.
run_side() {
	local dir=$1 side=$2 pair=$3
	shift 3
	echo "== pair $pair/$pairs: $side (seed $((seed0 + pair)))" >&2
	(cd "$dir" && bash bench/run.sh --runs 1 --seed "$((seed0 + pair))" \
		--out "$work/$side-$pair.json" "$@") >"$work/$side-$pair.log" 2>&1 ||
		{ cat "$work/$side-$pair.log" >&2; exit 1; }
}

for ((pair = 1; pair <= pairs; pair++)); do
	echo "pair $pair: $("$work/spinratio")" | tee -a "$work/host.txt" >&2
	if [ $((pair % 2)) -eq 1 ]; then
		run_side "$parent" parent "$pair" "$@"
		run_side "$root" change "$pair" "$@"
	else
		run_side "$root" change "$pair" "$@"
		run_side "$parent" parent "$pair" "$@"
	fi
done

for side in parent change; do
	docs=()
	for ((pair = 1; pair <= pairs; pair++)); do
		docs+=("$work/$side-$pair.json")
	done
	jq -s '.[0] + {runs: (map(.runs) | add)}' "${docs[@]}" >"$work/$side.json"
done

(cd "$root" && bash bench/run.sh --compare "$work/parent.json" "$work/change.json")

echo
echo "pairs won by the change (ties count for neither), of $pairs:"
jq -rn --slurpfile p "$work/parent.json" --slurpfile c "$work/change.json" \
	--slurpfile b "$root/BENCHMARK.json" '
	$b[0].workloads[].name as $w | $b[0].end_to_end[] as $m
	| [$p[0].runs[] | select(.workload == $w) | .metrics[$m.name].value] as $pv
	| [$c[0].runs[] | select(.workload == $w) | .metrics[$m.name].value] as $cv
	| [range(0; $pv | length)
		| select(if $m.better == "higher" then $cv[.] > $pv[.] else $cv[.] < $pv[.] end)]
	| "\($w)\t\($m.name)\t\(length)/\($pv | length)"'

echo
echo "host before each pair (1.0 = two free cores):"
cat "$work/host.txt"

echo
for side in parent change; do
	jq -r --arg side "$side" '"\($side): \(.runs | length) runs, \([.runs[] | select(.failed > 0)] | length) with failed operations (\([.runs[].failed] | add) in all), \([.runs[] | select(.correct | not)] | length) incorrect"' \
		"$work/$side.json"
done
echo "documents: $work/parent.json $work/change.json"
