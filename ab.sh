#!/bin/sh
# ab.sh PARENT WORKLOAD [PAIRS] [SECONDS] [SEED0] — the parent-vs-change
# protocol of bench/README.md and ROADMAP's house rules, as one command
# (`make ab PARENT=<rev> WORKLOAD=<name> PAIRS=10`; WORKLOAD=all runs the
# four workloads in turn).
#
# Builds the benchmark from a checkout of PARENT and from the working tree,
# runs PAIRS pairs of (parent, change) on WORKLOAD — both sides of a pair on
# the same seed, a fresh seed per pair, the side that goes first alternating
# — and prints, for every end-to-end metric: each pair's change/parent
# ratio, both sides' median and quartiles, how many pairs the change won
# (ties count for neither side), and a verdict by the choosing-metrics rule:
# `faster` (or `slower`) only when the change won (lost) at least nine
# tenths of the pairs and the medians differ, that way, by more than the
# distance between the parent's quartiles; `identical` when the two sides
# agree on every pair, as a count should per seed; `unresolved` otherwise.
# Timings on a shared box are only comparable within a pair. Under the table
# it prints how many pairs ran the same op stream on both sides (the
# record line's stream_hash) and names any pair that did not: a count
# compared across streams that differ compares nothing.
#
# The parent checkout is a `git archive` into a temporary directory, so
# nothing is registered in .git and nothing is left behind.
set -eu

parent=${1:?usage: ab.sh PARENT WORKLOAD [PAIRS] [SECONDS] [SEED0]}
workload=${2:?usage: ab.sh PARENT WORKLOAD [PAIRS] [SECONDS] [SEED0]}
pairs=${3:-10}
seconds=${4:-15}
seed0=${5:-$(date +%s)}

root=$(cd "$(dirname "$0")" && pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
trap 'exit 130' INT TERM

mkdir "$tmp/parent"
git -C "$root" archive "$parent" | tar -x -C "$tmp/parent"
# -trimpath and -buildvcs=false keep the checkout's path and VCS stamp out
# of the binaries, so two builds of one commit are byte-identical.
(cd "$tmp/parent/bench" && go build -trimpath -buildvcs=false -o "$tmp/bench.parent" .)
(cd "$root/bench" && go build -trimpath -buildvcs=false -o "$tmp/bench.change" .)

workloads=$workload
[ "$workload" = all ] && workloads="lib_hot lib_trace wire_trace wire_epochs"

# What every measurement names: the change's commit (+dirty when the working
# tree differs from it), the toolchain and the CPUs the runs had.
change=$(git -C "$root" rev-parse --short HEAD)
[ -z "$(git -C "$root" status --porcelain)" ] || change="$change+dirty"
stamp="$(go env GOVERSION), nproc $(nproc), GOMAXPROCS ${GOMAXPROCS:-$(nproc)}"

# run SIDE DIR PAIR SEED: one benchmark run; its table rows go to runs.txt
# as "pair side metric value", its record line's stream_hash to hashes.txt
# as "pair side hash". The benchmark exits non-zero on a failed or
# mis-verified operation; that stops the comparison.
run() {
	(cd "$2" && "$tmp/bench.$1" -workload "$workload" -seconds "$seconds" -seed "$4") >"$tmp/out.txt" 2>&1 || {
		cat "$tmp/out.txt" >&2
		echo "ab: $1 failed on pair $3 (seed $4)" >&2
		exit 1
	}
	awk -v pair="$3" -v side="$1" '
		/^record / { exit }
		NF == 4 && $2 ~ /^[-+0-9.e]+$/ && $4 ~ /^[0-9]+$/ { print pair, side, $1, $2 }
	' "$tmp/out.txt" >>"$tmp/runs.txt"
	hash=$(sed -n 's/^record .*"stream_hash":"\([^"]*\)".*/\1/p' "$tmp/out.txt")
	echo "$3 $1 ${hash:-none}" >>"$tmp/hashes.txt"
}

for workload in $workloads; do
	: >"$tmp/runs.txt"
	: >"$tmp/hashes.txt"
	echo "# $workload: $pairs pairs, parent $(git -C "$root" rev-parse --short "$parent") vs $change, $stamp, $seconds s streams, seeds $seed0.."
	i=1
	while [ "$i" -le "$pairs" ]; do
		seed=$((seed0 + i))
		if [ $((i % 2)) -eq 1 ]; then
			run parent "$tmp/parent/bench" "$i" "$seed"
			run change "$root/bench" "$i" "$seed"
		else
			run change "$root/bench" "$i" "$seed"
			run parent "$tmp/parent/bench" "$i" "$seed"
		fi
		echo "# pair $i (seed $seed) done" >&2
		i=$((i + 1))
	done

	awk -v pairs="$pairs" '
		function sort(a, n,    i, j, t) {
			for (i = 2; i <= n; i++) {
				t = a[i]
				for (j = i - 1; j >= 1 && a[j] > t; j--) a[j + 1] = a[j]
				a[j + 1] = t
			}
		}
		# quantile of sorted a[1..n], linear interpolation
		function q(a, n, p,    h, lo) {
			h = 1 + (n - 1) * p; lo = int(h)
			return lo >= n ? a[n] : a[lo] + (h - lo) * (a[lo + 1] - a[lo])
		}
		# summary sets med[side] and iqr[side] beside the line it returns
		function summary(side, m,    i, a) {
			for (i = 1; i <= pairs; i++) a[i] = v[i, side, m]
			sort(a, pairs)
			med[side] = q(a, pairs, 0.5); iqr[side] = q(a, pairs, 0.75) - q(a, pairs, 0.25)
			return sprintf("%.6g [%.6g, %.6g]", med[side], q(a, pairs, 0.25), q(a, pairs, 0.75))
		}
		{ v[$1, $2, $3] = $4; if (!($3 in seen)) { seen[$3] = 1; order[++n] = $3 } }
		END {
			for (k = 1; k <= n; k++) {
				m = order[k]
				higher = (m == "ops_per_s" || m == "hit_ratio") # as BENCHMARK.json says; the rest are costs
				wins = losses = 0; ratios = ""
				for (i = 1; i <= pairs; i++) {
					p = v[i, "parent", m]; c = v[i, "change", m]
					ratios = ratios (p != 0 ? sprintf(" %.3f", c / p) : (c == 0 ? " =" : " inf"))
					if (c != p) { if ((c > p) == higher) wins++; else losses++ }
				}
				printf "%s (%s is better)\n", m, higher ? "higher" : "lower"
				printf "  change/parent per pair:%s\n", ratios
				printf "  parent median [q1, q3]: %s\n", summary("parent", m)
				printf "  change median [q1, q3]: %s\n", summary("change", m)
				printf "  change wins %d, loses %d of %d\n", wins, losses, pairs
				gain = (med["change"] - med["parent"]) * (higher ? 1 : -1) # > 0: the change reads better
				verdict = "unresolved"
				if (wins + losses == 0) verdict = "identical"
				else if (10 * wins >= 9 * pairs && gain > iqr["parent"]) verdict = "faster"
				else if (10 * losses >= 9 * pairs && -gain > iqr["parent"]) verdict = "slower"
				printf "  verdict: %s\n", verdict
			}
		}
	' "$tmp/runs.txt"
	awk -v pairs="$pairs" '
		{ h[$1, $2] = $3 }
		END {
			same = 0
			for (i = 1; i <= pairs; i++) {
				if (h[i, "parent"] == h[i, "change"] && h[i, "parent"] != "none") same++
				else printf "  pair %d: stream_hash differs: parent %s, change %s\n", i, h[i, "parent"], h[i, "change"]
			}
			printf "streams identical: %d/%d pairs\n", same, pairs
		}
	' "$tmp/hashes.txt"
done
