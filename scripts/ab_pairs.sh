#!/usr/bin/env bash
# Compares two checkouts of this repository on one benchmark workload with
# alternating pairs of runs, the way a change is measured against its parent.
#
# Builds each checkout's benchmark package (benchmark/) into that checkout's
# own target directory, then runs PAIRS pairs of untraced runs
#   maxrs-benchmark --workload WORKLOAD --seed SEED --seconds SECONDS --trace 0
# alternating the order: the parent runs first on odd pairs, the change first
# on even ones.  For every end-to-end metric of the change's BENCHMARK.json it
# prints both sides' medians and quartiles (linear interpolation), the pairs
# the change won (by the metric's "better" direction; ties count for
# neither) and a verdict, checked in this order:
#   gain              the change won at least 9 of 10 pairs and its median is
#                     better by more than the parent's quartile spread;
#   unresolved        the parent's quartile spread exceeds the metric's bound
#                     (relative to its median) and not every change run beats
#                     every parent run;
#   worse than bound  the change's median is worse than the parent's by more
#                     than the bound;
#   within bound      otherwise.
# It also prints each side's failed operations and whether its exact I/O
# counts (the provenance line's "exact" record) repeated in every run.  The
# two output lines of every run are kept in a temporary directory whose path
# is printed last.
#
# Usage: scripts/ab_pairs.sh PARENT_DIR CHANGE_DIR WORKLOAD SEED SECONDS PAIRS
#   e.g. scripts/ab_pairs.sh ../parent . tiny-buffer 1 20 10
# Needs cargo (offline) and python3.
set -eu

if [ "$#" -ne 6 ]; then
    sed -n '2,28p' "$0" | sed 's/^# \{0,1\}//'
    exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
workload=$3
seed=$4
seconds=$5
pairs=$6

build() {
    cargo build --quiet --release --offline \
        --manifest-path "$1/benchmark/Cargo.toml" \
        --target-dir "$1/benchmark/target" >&2
}
build "$parent"
build "$change"

log=$(mktemp -d "${TMPDIR:-/tmp}/ab_pairs.XXXXXX")

# run SIDE DIR PAIR: one benchmark run, its last two lines kept in the log.
run() {
    local out="$log/$1-$3.txt"
    (cd "$2" && benchmark/target/release/maxrs-benchmark \
        --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0) \
        2>"$log/$1-$3.err" | tail -n 2 >"$out" || true
    if [ "$(wc -l <"$out")" -lt 2 ]; then
        echo "run $1 pair $3 printed no result; see $log/$1-$3.err" >&2
        exit 1
    fi
}

for i in $(seq 1 "$pairs"); do
    if [ $((i % 2)) -eq 1 ]; then
        run parent "$parent" "$i"
        run change "$change" "$i"
    else
        run change "$change" "$i"
        run parent "$parent" "$i"
    fi
    echo "pair $i of $pairs done" >&2
done

python3 - "$log" "$change/BENCHMARK.json" "$workload" "$seed" "$seconds" "$pairs" <<'EOF'
import json
import statistics
import sys

log, spec, workload, seed, seconds, pairs = sys.argv[1:]
pairs = int(pairs)
metrics = json.load(open(spec))["end_to_end"]


def load(side, i):
    prov, result = open(f"{log}/{side}-{i}.txt").read().splitlines()
    return json.loads(prov)["provenance"], json.loads(result)


runs = {s: [load(s, i) for i in range(1, pairs + 1)] for s in ("parent", "change")}


def summary(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q2, q1, q3


def verdict(parent, change, better, bound, won):
    """One metric's verdict, by the rule in the header of this script."""
    sign = 1 if better == "lower" else -1
    (p_med, p_q1, p_q3), (c_med, _, _) = summary(parent), summary(change)
    spread = p_q3 - p_q1
    gain = sign * (p_med - c_med)
    if won * 10 >= 9 * pairs and gain > spread:
        return "gain"
    every_run_better = all(sign * (p - c) > 0 for p in parent for c in change)
    if spread > bound * abs(p_med) and not every_run_better:
        return "unresolved"
    if -gain > bound * abs(p_med):
        return "worse than bound"
    return "within bound"


print(f"workload {workload}, seed {seed}, {seconds}-s runs, {pairs} pairs "
      "(parent first on odd pairs); median [q1, q3]")
print(f"{'metric':<22} {'parent':>32} {'change':>32} {'change won':>12}  verdict")
for m in metrics:
    name, better = m["name"], m["better"]
    vals = {s: [r[1]["metrics"].get(name, {}).get("value") for r in runs[s]]
            for s in runs}
    if any(v is None for s in vals for v in vals[s]):
        print(f"{name:<22} (not reported)")
        continue
    won = sum(1 for p, c in zip(vals["parent"], vals["change"])
              if (c < p if better == "lower" else c > p))
    cells = []
    for s in ("parent", "change"):
        med, q1, q3 = summary(vals[s])
        cells.append(f"{med:.6g} [{q1:.6g}, {q3:.6g}]")
    ruling = verdict(vals["parent"], vals["change"], better, m["bound"], won)
    print(f"{name:<22} {cells[0]:>32} {cells[1]:>32} {won:>5} of {pairs}  {ruling}")
for s in ("parent", "change"):
    failed = sum(r[1]["failed"] for r in runs[s])
    attempted = sum(r[1]["attempted"] for r in runs[s])
    correct = all(r[1]["correct"] for r in runs[s])
    exact = [json.dumps(r[0]["exact"], sort_keys=True) for r in runs[s]]
    repeat = "yes" if len(set(exact)) == 1 else "no"
    print(f"{s}: {failed} of {attempted} operations failed, all correct: "
          f"{'yes' if correct else 'no'}, exact counts repeat: {repeat}")
    print(f"  exact: {exact[0]}")
print(f"raw result lines: {log}")
EOF
