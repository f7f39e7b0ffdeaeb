#!/usr/bin/env bash
# Same-box interleaved A/B of the repository benchmark.
#
#   scripts/bench_ab.sh REV_A REV_B [workload...]
#
# Checks out each revision in a git worktree under .bench_build/, builds
# and runs `perfbench` there with the command BENCHMARK.json declares, and
# interleaves the runs: pair i runs A then B (B then A on even i), both
# with seed i, so drift in the host's load hits both sides alike. The
# workloads default to every workload in BENCHMARK.json.
#
# Environment:
#   RUNS=n     runs per revision and workload (default 10, minimum 5)
#   TRACE=0|1  --trace mode (default 0: the end-to-end metrics;
#              1: the per-layer metrics)
#
# Every run lasts BENCHMARK.json's run_seconds.
#
# For each workload and metric it prints the median, min-max and
# interquartile range of A and B, the B/A ratio of the medians, and in how
# many pairs B was better. Raw results are kept in .bench_build/ab-<time>/.
# The worktrees are removed on exit. To measure uncommitted work, pass
# `$(git stash create)` as a revision (after `git add -A`, so that new
# files are included).
set -euo pipefail

if [ $# -lt 2 ]; then
    sed -n '3,24p' "$0" | sed 's/^# \{0,1\}//'
    exit 2
fi

root=$(git rev-parse --show-toplevel)
cd "$root"
rev_a=$(git rev-parse --verify "$1^{commit}")
rev_b=$(git rev-parse --verify "$2^{commit}")
shift 2

runs=${RUNS:-10}
trace=${TRACE:-0}
if [ "$runs" -lt 5 ]; then
    echo "bench_ab: RUNS must be at least 5" >&2
    exit 2
fi

read_contract() {
    python3 -c 'import json, sys; b = json.load(open("BENCHMARK.json")); exec(sys.argv[1])' "$1"
}
mapfile -t command < <(read_contract 'print("\n".join(b["command"]))')
seconds=$(read_contract 'print(b["run_seconds"])')
if [ $# -gt 0 ]; then
    workloads=("$@")
else
    mapfile -t workloads < <(read_contract 'print("\n".join(w["name"] for w in b["workloads"]))')
fi

build=.bench_build
out="$build/ab-$(date +%Y%m%d-%H%M%S)"
mkdir -p "$out"
trees=()
cleanup() {
    for t in "${trees[@]}"; do
        git worktree remove --force "$t" 2>/dev/null || true
    done
}
trap cleanup EXIT

# Creates the worktree for a revision and builds perfbench in it (the
# `--describe` run builds through the contract's own command).
prepare() {
    local tree="$build/wt-$1"
    if [ ! -d "$tree" ]; then
        git worktree add --detach --quiet "$tree" "$1"
        trees+=("$tree")
    fi
    (cd "$tree" && "${command[@]}" --describe >/dev/null)
}
tree_a="$build/wt-$rev_a"
tree_b="$build/wt-$rev_b"
echo "A = $rev_a" >&2
prepare "$rev_a"
echo "B = $rev_b" >&2
prepare "$rev_b"

# run SIDE TREE WORKLOAD SEED: one benchmark run, its last line kept.
run() {
    local file="$out/$3-$1-$4.json"
    echo "  $3 seed $4 $1" >&2
    (cd "$2" && "${command[@]}" --workload "$3" --seed "$4" --seconds "$seconds" \
        --trace "$trace") | tail -n 1 >"$file" || true
}
for i in $(seq 1 "$runs"); do
    for w in "${workloads[@]}"; do
        if [ $((i % 2)) -eq 1 ]; then
            run A "$tree_a" "$w" "$i"
            run B "$tree_b" "$w" "$i"
        else
            run B "$tree_b" "$w" "$i"
            run A "$tree_a" "$w" "$i"
        fi
    done
done

python3 - "$out" "$runs" "${workloads[@]}" <<'EOF'
import json
import statistics
import sys

out, runs, workloads = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
contract = json.load(open("BENCHMARK.json"))
better = {m["name"]: m["better"] for m in contract["end_to_end"] + contract["per_layer"]}


def load(workload, side, seed):
    try:
        return json.load(open(f"{out}/{workload}-{side}-{seed}.json"))
    except (OSError, ValueError):
        return None


def iqr(xs):
    if len(xs) < 2:
        return 0.0
    q = statistics.quantiles(xs, n=4)
    return q[2] - q[0]


def fmt(x):
    return f"{x:.0f}" if abs(x) >= 1e4 else f"{x:.4g}"


print(f"# {out}: {runs} interleaved pairs per workload")
for w in workloads:
    pairs = [(load(w, "A", s), load(w, "B", s)) for s in range(1, runs + 1)]
    bad = sum(1 for pair in pairs for r in pair if r is None or not r.get("correct"))
    pairs = [(a, b) for a, b in pairs if a and b]
    print(f"\n## {w} ({len(pairs)} complete pairs, {bad} failed or incorrect runs)")
    if not pairs:
        continue
    print(f"{'metric':34} {'A median':>10} {'A min-max':>21} {'A IQR':>8} "
          f"{'B median':>10} {'B min-max':>21} {'B IQR':>8} {'B/A':>6} {'B better':>9}")
    for name in pairs[0][0]["metrics"]:
        a = [p[0]["metrics"][name]["value"] for p in pairs]
        b = [p[1]["metrics"][name]["value"] for p in pairs]
        ma, mb = statistics.median(a), statistics.median(b)
        ratio = f"{mb / ma:.3f}" if ma else "-"
        sign = -1 if better.get(name) == "lower" else 1
        wins = sum(1 for x, y in zip(a, b) if sign * (y - x) > 0)
        print(f"{name:34} {fmt(ma):>10} {fmt(min(a)) + '..' + fmt(max(a)):>21} {fmt(iqr(a)):>8} "
              f"{fmt(mb):>10} {fmt(min(b)) + '..' + fmt(max(b)):>21} {fmt(iqr(b)):>8} "
              f"{ratio:>6} {wins:>5}/{len(pairs)}")
EOF
