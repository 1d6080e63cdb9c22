#!/usr/bin/env bash
# Paired runs of the repository benchmark: the working tree against a git
# revision, one workload, PAIRS pairs.
#
#   bash scripts/bench-pair.sh REV WORKLOAD [PAIRS]     (or: make bench-pair)
#
# REV is archived into a fresh temporary tree. Pair i runs both trees'
# own `bash bench/run.sh --workload WORKLOAD --seed i --seconds S --trace 0`
# with S the run_seconds of BENCHMARK.json, the revision first on odd i and
# the working tree first on even i. Every run's output and its last line
# (the metrics JSON) stay under the temporary directory, whose path is
# printed. For each end-to-end metric of BENCHMARK.json the summary gives
# both medians, the revision's quartile spread (IQR, by bench's own
# exclusive method), the working tree's wins (ties count for neither), a
# gain (wins in at least 9/10 of the pairs and a median difference beyond
# the revision's IQR) and whether the working tree's median is worse than
# the revision's by more than the metric's bound.
set -euo pipefail
usage="usage: $0 REV WORKLOAD [PAIRS]"
rev=${1:?$usage}
workload=${2:?$usage}
pairs=${3:-10}
root=$(git rev-parse --show-toplevel)
cd "$root"
seconds=$(jq -r .run_seconds BENCHMARK.json)
jq -e --arg w "$workload" 'any(.workloads[]; .name == $w)' BENCHMARK.json > /dev/null ||
	{ echo "bench-pair: unknown workload $workload" >&2; exit 2; }

tmp=$(mktemp -d)
parent="$tmp/parent"
mkdir "$parent" "$tmp/runs"
# The archived tree's build cache is large; the runs are what is kept.
trap 'rm -rf "$parent"' EXIT
git archive "$rev" | tar -x -C "$parent"
echo "bench-pair: $workload, $pairs pair(s) of ${seconds} s, $rev ($(git rev-parse --short "$rev")) against the working tree; runs in $tmp/runs"

run() { # side dir seed
	local out="$tmp/runs/$1-$3"
	if ! (cd "$2" && bash bench/run.sh --workload "$workload" --seed "$3" --seconds "$seconds" --trace 0) > "$out.out" 2>&1; then
		echo "bench-pair: $1 run, seed $3, failed:" >&2
		tail -5 "$out.out" >&2
		exit 1
	fi
	tail -1 "$out.out" > "$out.json"
	echo "  pair $3 $1: $(jq -r '.metrics | to_entries | map("\(.key)=\(.value.value)") | join(" ")' "$out.json")"
}
for i in $(seq 1 "$pairs"); do
	if [ $((i % 2)) -eq 1 ]; then
		run parent "$parent" "$i"; run change "$root" "$i"
	else
		run change "$root" "$i"; run parent "$parent" "$i"
	fi
done

lines() { for i in $(seq 1 "$pairs"); do cat "$tmp/runs/$1-$i.json"; done; }
jq -rn --slurpfile bm BENCHMARK.json \
	--slurpfile parent <(lines parent) --slurpfile change <(lines change) '
# Quartile k by the exclusive method (bench/stats.go quartiles).
def quart($k): sort as $s | ($s | length) as $n |
	if $n == 1 then $s[0] else
		($k * ($n + 1) / 4) as $pos | ([[($pos | floor), 1] | max, $n - 1] | min) as $j |
		$s[$j - 1] + ($pos - $j) * ($s[$j] - $s[$j - 1])
	end;
def pct: if . == null then "-" else (. * 1000 | round / 10 | tostring) + "%" end;
def num: if . == null then "-" else (. * 1000 | round / 1000 | tostring) end;
($parent | length) as $n |
"metric\tparent_med\tchange_med\tdelta\tparent_IQR\twins\tgain\tworse>bound",
($bm[0].end_to_end[] | .name as $m | (if .better == "lower" then -1 else 1 end) as $dir |
	[$parent[] | .metrics[$m].value] as $b | [$change[] | .metrics[$m].value] as $c |
	if ($b | map(select(. == null)) | length) > 0 or ($c | map(select(. == null)) | length) > 0 then
		"\($m)\t-\t-\t-\t-\t-\t-\tnot reported"
	else
		($b | quart(2)) as $bmed | ($c | quart(2)) as $cmed |
		(($b | quart(3)) - ($b | quart(1))) as $iqr |
		([range($n) | select(($c[.] - $b[.]) * $dir > 0)] | length) as $wins |
		(if $bmed == 0 then null else ($cmed - $bmed) / $bmed end) as $delta |
		"\($m)\t\($bmed | num)\t\($cmed | num)\t\($delta | pct)\t\($iqr | num)\t\($wins)/\($n)\t" +
		(if $wins * 10 >= $n * 9 and ($cmed - $bmed) * $dir > $iqr then "yes" else "no" end) + "\t" +
		(if $delta != null and -$delta * $dir > .bound then "WORSE (bound \(.bound | pct))" else "ok" end)
	end)
' | awk -F'\t' '{ printf "%-17s %11s %11s %8s %11s %6s %5s %s\n", $1, $2, $3, $4, $5, $6, $7, $8 }'
