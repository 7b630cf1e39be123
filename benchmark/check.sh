#!/usr/bin/env bash
# Repeatability self-check of the round benchmark.
#
#   benchmark/check.sh             build; run every workload twice at the default
#                                  seed and once at a second seed (plus one traced
#                                  run); assert the two same-seed sets agree within
#                                  each end-to-end metric's bound (bytes exactly)
#                                  and print the observed difference next to it.
#   benchmark/check.sh --quick     build; tiny smoke run of every workload in both
#                                  modes (<= 15 s after the build); asserts only
#                                  that every output check holds.
#   benchmark/check.sh --baseline  build; ten seeds per workload plus one traced
#                                  run; rewrites the measured part of
#                                  benchmark/baseline.json (about 25 minutes).
#
# Run on an otherwise idle host. The workloads keep one core busy (two
# processes on net_fedavg_swarm) and discount hypervisor steal, nothing else.
set -euo pipefail
cd "$(dirname "$0")/.."

mode="${1:-full}"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
bin="$CARGO_TARGET_DIR/release/roundbench"
out="benchmark/out/check"
mkdir -p "$out"

# run <file> <args...>: one benchmark run; keeps the whole stdout.
run() {
    local file="$1"
    shift
    if ! "$bin" "$@" >"$out/$file.txt"; then
        echo "FAILED: roundbench $*" >&2
        grep -E '^(#|CHECK FAILED)' "$out/$file.txt" >&2 || true
        exit 1
    fi
}

workloads=$("$bin" list)

if [ "$mode" = "--quick" ]; then
    for w in $workloads; do
        for t in 0 1; do
            run "quick.$w.$t" --workload "$w" --trace "$t" --quick
            head -1 "$out/quick.$w.$t.txt"
        done
    done
    echo "quick smoke: every output check held"
    exit 0
fi

seeds="11 11 12"
[ "$mode" = "--baseline" ] && seeds="1 2 3 4 5 6 7 8 9 10"
for w in $workloads; do
    i=0
    for s in $seeds; do
        i=$((i + 1))
        echo "running $w seed $s (run $i) ..." >&2
        run "$w.e2e.$i" --workload "$w" --seed "$s" --trace 0
    done
    echo "running $w traced ..." >&2
    run "$w.traced" --workload "$w" --seed 11 --trace 1
done

python3 - "$mode" "$out" $workloads <<'PY'
import json, statistics, sys

mode, out, workloads = sys.argv[1], sys.argv[2], sys.argv[3:]
manifest = json.load(open("BENCHMARK.json"))
bounds = {m["name"]: m for m in manifest["end_to_end"]}
EXACT = ("upload_bytes_per_round", "download_bytes_per_round")


def result(path):
    """Result object (last line) and provenance of one saved run."""
    lines = open(path).read().splitlines()
    prov = next(l for l in lines if l.startswith("provenance "))
    return json.loads(lines[-1]), json.loads(prov[len("provenance "):])


def worse_by(metric, a, b):
    """Share of `a` by which `b` is worse, in the metric's direction."""
    if a == 0:
        return 0.0
    delta = (b - a) / abs(a)
    return delta if bounds[metric]["better"] == "lower" else -delta


if mode == "--baseline":
    baseline = json.load(open("benchmark/baseline.json"))
    measured = {}
    for w in workloads:
        runs = [result(f"{out}/{w}.e2e.{i}.txt") for i in range(1, 11)]
        table = {}
        for metric in bounds:
            v = [r["metrics"][metric]["value"] for r, _ in runs]
            q = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            table[metric] = {
                "unit": bounds[metric]["unit"], "median": med, "q1": q[0], "q3": q[2],
                "iqr_share": (q[2] - q[0]) / med, "bound": bounds[metric]["bound"],
            }
        traced, prov = result(f"{out}/{w}.traced.txt")
        measured[w] = {
            "seeds": list(range(1, 11)),
            "end_to_end": table,
            "per_layer_seed_11": {k: m["value"] for k, m in traced["metrics"].items()},
            "host": {k: prov[k] for k in ("nproc", "spatl_threads", "kernel", "git_revision")},
        }
    baseline["measured"] = measured
    json.dump(baseline, open("benchmark/baseline.json", "w"), indent=2)
    print("rewrote the measured part of benchmark/baseline.json")
    for w, m in measured.items():
        for metric, row in m["end_to_end"].items():
            flag = "" if row["iqr_share"] <= row["bound"] else "  <-- spread exceeds bound"
            print(f"{w:24} {metric:26} median {row['median']:<12.6g} "
                  f"iqr/median {row['iqr_share']:.4f}  bound {row['bound']}{flag}")
    sys.exit(0)

failures = 0
for w in workloads:
    (a, _), (b, _), (c, _) = (result(f"{out}/{w}.e2e.{i}.txt") for i in (1, 2, 3))
    for r in (a, b, c):
        assert r["correct"] and r["failed"] == 0, f"{w}: a run was not correct"
    for metric, spec in bounds.items():
        va, vb = a["metrics"][metric]["value"], b["metrics"][metric]["value"]
        diff = max(worse_by(metric, va, vb), worse_by(metric, vb, va))
        limit = 0.0 if metric in EXACT else spec["bound"]
        ok = diff <= limit
        failures += not ok
        print(f"{w:24} {metric:26} {va:<14.6g} {vb:<14.6g} differ {diff:.4f}  "
              f"bound {limit}  {'ok' if ok else 'OUTSIDE BOUND'}")
    print(f"{w:24} second seed and traced run: every output check held")
if failures:
    sys.exit(f"{failures} same-seed comparisons fell outside their bound")
print("same-seed runs agree within every bound")
PY
