#!/usr/bin/env bash
# Do two sets of runs of the same code agree within the benchmark's bounds?
#
#   bash bench/agree.sh [-n runs-per-set] [workload ...]     (from the repo root)
#
# For each workload it runs two interleaved sets, A1 B1 A2 B2 ..., every run
# with another seed, so both sets sample the same stretches of machine time,
# as the driver's parent/change alternation does. Per end-to-end metric it
# prints each set's median and quartiles, the gap between the medians in the
# "worse" direction as a share of A's, and the quartile spread of all runs as
# a share of their median, each against the metric's bound in BENCHMARK.json.
# Under ops_per_s and latency_p50_ms it prints the same quartiles as the clock
# read them, before each window was restated at the reference machine speed.
# It exits non-zero if a gap or a spread is over its bound, or a run failed
# its output check. The machine-speed probe is printed beside them: when the
# two sets' probe medians are more than a tenth apart the machine drifted,
# and a failing timing metric says nothing about the benchmark.
set -euo pipefail

n=5
if [[ "${1:-}" == "-n" ]]; then
	n=$2
	shift 2
fi
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
workloads=("$@")
if [[ ${#workloads[@]} -eq 0 ]]; then
	mapfile -t workloads < <(python3 -c 'import json; print("\n".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
fi
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
out=bench/out/agree
mkdir -p "$out"

for w in "${workloads[@]}"; do
	: >"$out/$w.jsonl"
	for ((i = 0; i < n; i++)); do
		for set in A B; do
			seed=$((2 * i + 1))
			[[ $set == B ]] && seed=$((2 * i + 2))
			echo "agree: $w $set$((i + 1)) seed $seed" >&2
			line=$(bash bench/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 2>"$out/$w.$set$((i + 1)).log" | tail -n 1)
			stamp=$(python3 -c 'import json,sys; s = json.load(open(sys.argv[1]))["stamp"]; print(json.dumps({k: s[k] for k in ("ref_ops_per_s", "raw_ops_per_s", "raw_latency_p50_ms")}))' "bench/out/run_$w.json")
			echo "{\"set\": \"$set\", \"seed\": $seed, \"stamp\": $stamp, \"result\": $line}" >>"$out/$w.jsonl"
		done
	done
done

python3 - "$out" "${workloads[@]}" <<'EOF'
import json, statistics, sys

out, workloads = sys.argv[1], sys.argv[2:]
bench = json.load(open("BENCHMARK.json"))
bad = False

def quartiles(xs):
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return q1, statistics.median(xs), q3

for w in workloads:
    runs = [json.loads(line) for line in open(f"{out}/{w}.jsonl")]
    sets = {s: [r for r in runs if r["set"] == s] for s in "AB"}
    print(f"\n## {w}: 2 x {len(sets['A'])} runs")
    for r in runs:
        if not r["result"]["correct"] or r["result"]["failed"]:
            print(f"FAIL: set {r['set']} seed {r['seed']}: {r['result']['failed']} of {r['result']['attempted']} ops failed")
            bad = True
    print(f"{'metric':16} {'A q1 / median / q3':38} {'B q1 / median / q3':38} {'gap':>8} {'spread':>8} {'bound':>6}")
    for m in bench["end_to_end"]:
        name, bound, sign = m["name"], m["bound"], 1 if m["better"] == "lower" else -1
        qa, qb = (quartiles([r["result"]["metrics"][name]["value"] for r in sets[s]]) for s in "AB")
        q1, med, q3 = quartiles([r["result"]["metrics"][name]["value"] for r in runs])
        gap, spread = sign * (qb[1] - qa[1]) / qa[1], (q3 - q1) / med
        verdict = ""
        if abs(gap) > bound or (spread > bound and name != "setup_s"):
            verdict, bad = "  OVER BOUND", True
        elif spread > bound / 3:
            verdict = "  wide (over a third of the bound)"
        fmt = lambda q: " / ".join(f"{x:.6g}" for x in q)
        print(f"{name:16} {fmt(qa):38} {fmt(qb):38} {gap:+8.4f} {spread:8.4f} {bound:6.2f}{verdict}")
        if "raw_" + name in runs[0]["stamp"]:
            q1, med, q3 = quartiles([r["stamp"]["raw_" + name] for r in runs])
            print(f"  by the clock   all runs {fmt((q1, med, q3)):38} {'':29} {(q3 - q1) / med:8.4f}")
    pa, pb = (statistics.median(r["stamp"]["ref_ops_per_s"] for r in sets[s]) for s in "AB")
    drift = abs(pb - pa) / pa
    print(f"machine probe    A {pa:.1f}/s  B {pb:.1f}/s  apart {drift:.4f}" + ("  MACHINE DRIFTED" if drift > 0.10 else ""))

sys.exit(1 if bad else 0)
EOF
