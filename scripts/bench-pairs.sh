#!/usr/bin/env bash
# Same-runner paired benchmark gate. Checks out a base revision and HEAD in
# two git worktrees and runs the repository benchmark (perfbench/, declared
# by BENCHMARK.json) on both, in interleaved pairs, on this host:
#
#   scripts/bench-pairs.sh <base-rev>
#
# Pair i (1..PAIRS) runs seed 100+i on both sides, never the held-out seed
# 104729; odd pairs run the base first, even pairs HEAD first. For every
# end-to-end metric in HEAD's BENCHMARK.json the per-pair ratio is oriented
# so that above 1 is worse (HEAD/base for lower-is-better metrics,
# base/HEAD for higher-is-better ones). The gate fails when a median ratio
# exceeds 1 + the metric's bound, when a run prints correct: false, or when
# HEAD fails a larger share of its operations than the base in any pair.
# Pass or fail, it prints each workload's per-pair ratios for every
# end-to-end metric, so the spread behind each median is in the output.
# Both sides run on the same machine within minutes of each other, so the
# gate compares code, not hosts.
set -euo pipefail

PAIRS=5
RUN_SECONDS=5
SEED_BASE=100

if [ $# -ne 1 ]; then
	echo "usage: $0 <base-rev>" >&2
	exit 2
fi
root=$(git rev-parse --show-toplevel)
base=$(git -C "$root" rev-parse --verify "$1^{commit}")
head=$(git -C "$root" rev-parse --verify HEAD)

work=$(mktemp -d "${TMPDIR:-/tmp}/bench-pairs.XXXXXX")
cleanup() {
	git -C "$root" worktree remove --force "$work/base" >/dev/null 2>&1 || true
	git -C "$root" worktree remove --force "$work/head" >/dev/null 2>&1 || true
	rm -rf "$work"
	git -C "$root" worktree prune
}
trap cleanup EXIT
git -C "$root" worktree add --quiet --detach "$work/base" "$base"
git -C "$root" worktree add --quiet --detach "$work/head" "$head"
mkdir "$work/out"

mapfile -t workloads < <(python3 -c 'import json, sys; print("\n".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' "$work/head/BENCHMARK.json")

# run <side> <workload> <pair> <seed> keeps the run's result line (the last
# line perfbench prints) as out/<workload>.<pair>.<side>.json.
run() {
	local side=$1 w=$2 i=$3 seed=$4 rc=0
	echo "bench-pairs: $w pair $i seed $seed $side" >&2
	(cd "$work/$side" && bash perfbench/run.sh --workload "$w" --seed "$seed" \
		--seconds "$RUN_SECONDS" --trace 0) >"$work/run.out" 2>"$work/run.err" || rc=$?
	cat "$work/run.err" >&2
	if [ "$rc" -ne 0 ]; then
		echo "bench-pairs: FAIL: $side run of $w seed $seed exited $rc" >&2
		exit 1
	fi
	tail -n 1 "$work/run.out" >"$work/out/$w.$i.$side.json"
}

for w in "${workloads[@]}"; do
	for ((i = 1; i <= PAIRS; i++)); do
		seed=$((SEED_BASE + i))
		if ((i % 2 == 1)); then
			run base "$w" "$i" "$seed"
			run head "$w" "$i" "$seed"
		else
			run head "$w" "$i" "$seed"
			run base "$w" "$i" "$seed"
		fi
	done
done

echo "bench-pairs: base $base vs HEAD $head, $PAIRS pairs per workload, --seconds $RUN_SECONDS"
python3 - "$work/head/BENCHMARK.json" "$work/out" "$PAIRS" "$SEED_BASE" <<'EOF'
import json, statistics, sys

bench_path, out, pairs, seed_base = sys.argv[1], sys.argv[2], int(sys.argv[3]), int(sys.argv[4])
bench = json.load(open(bench_path))
workloads = [w["name"] for w in bench["workloads"]]
problems = []

def load(w, i, side):
    path = f"{out}/{w}.{i}.{side}.json"
    try:
        return json.load(open(path))
    except (OSError, ValueError) as e:
        problems.append(f"{w} pair {i} {side}: no result line ({e})")
        return None

runs = {(w, i, s): load(w, i, s) for w in workloads for i in range(1, pairs + 1) for s in ("base", "head")}

def share(r):
    return r["failed"] / r["attempted"] if r["attempted"] else 1.0

failed = {}
for w in workloads:
    tot = {"base": [0, 0], "head": [0, 0]}
    for i in range(1, pairs + 1):
        b, h = runs[(w, i, "base")], runs[(w, i, "head")]
        for side, r in (("base", b), ("head", h)):
            if r is None:
                continue
            tot[side][0] += r["failed"]
            tot[side][1] += r["attempted"]
            if not r["correct"]:
                problems.append(f"{w} pair {i} {side}: correct: false")
        if b is not None and h is not None and share(h) > share(b):
            problems.append(f"{w} pair {i}: HEAD failed {h['failed']}/{h['attempted']}, base {b['failed']}/{b['attempted']}")
    failed[w] = "{}/{} {}/{}".format(*tot["base"], *tot["head"])

def ratio(m, b, h):
    num, den = (h, b) if m["better"] == "lower" else (b, h)
    if num == den:
        return 1.0
    return num / den if den else float("inf")

col = max(len(w) for w in workloads) + 2
pair_ratios = {}  # (workload, metric) -> per-pair ratios, in pair order
print("median per-pair ratio, >1 is worse (HEAD/base; base/HEAD where higher is better)")
print(f"{'metric':<22}{'bound':>7}" + "".join(f"{w:>{col}}" for w in workloads))
for m in bench["end_to_end"]:
    cells = []
    for w in workloads:
        rs = []  # None where a side has no result
        for i in range(1, pairs + 1):
            b, h = runs[(w, i, "base")], runs[(w, i, "head")]
            rs.append(None if b is None or h is None else
                      ratio(m, b["metrics"][m["name"]]["value"], h["metrics"][m["name"]]["value"]))
        pair_ratios[(w, m["name"])] = rs
        vals = [r for r in rs if r is not None]
        if not vals:
            cells.append("-")
            continue
        med = statistics.median(vals)
        cell = f"{med:.3f}"
        if med > 1 + m["bound"]:
            cell = "FAIL " + cell
            problems.append(f"{m['name']} on {w}: median ratio {med:.3f} worse than bound {m['bound']}")
        cells.append(cell)
    print(f"{m['name']:<22}{m['bound']:>7}" + "".join(f"{c:>{col}}" for c in cells))
print(f"{'failed/attempted':<29}" + "".join(f"{failed[w]:>{col}}" for w in workloads) + "   (base HEAD)")
print()
print(f"per-pair ratios, pairs 1..{pairs} (seeds {seed_base + 1}..{seed_base + pairs}), >1 is worse")
for w in workloads:
    print(w)
    for m in bench["end_to_end"]:
        print(f"  {m['name']:<20}" + " ".join("-" if r is None else f"{r:.3f}" for r in pair_ratios[(w, m["name"])]))

for p in problems:
    print("bench-pairs: FAIL:", p)
if problems:
    sys.exit(1)
print("bench-pairs: PASS")
EOF
