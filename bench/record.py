"""Run every workload on several seeds and append one row to bench/baseline.json.

    python3 bench/record.py --label "before: <commit>" --seeds 1-10

Every run is given BENCHMARK.json's ``run_seconds``, which fixes its number
of cycles.  For each seed it runs every workload untraced (seed-major, so
that a slow spell of the machine spreads over all workloads), then one traced run per
workload on the first seed.  The row holds the environment, and per workload
the median, quartiles and spread (interquartile range / median, as
``statistics.quantiles(values, n=4)`` gives them) of every end-to-end metric
and of the raw, uncalibrated wall times, the failed ops by reason, and the
per-layer metrics of the traced run.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT = BENCH_DIR / "baseline.json"


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def bench(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    report, last = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
    return report, last


def spread_row(values, unit):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
            "unit": unit, "values": values}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]

    runs = {w: [] for w in names}
    for seed in args.seeds:
        for w in names:
            t0 = time.monotonic()
            report, last = bench(w, seed, seconds, 0)
            runs[w].append((report, last))
            print(f"{w} seed {seed}: {time.monotonic() - t0:.0f} s, "
                  f"failed {last['failed']}/{last['attempted']}, correct {last['correct']}",
                  file=sys.stderr, flush=True)

    env = runs[names[0]][0][0]["environment"]
    row = {"label": args.label, "seconds": seconds, "seeds": args.seeds,
           "environment": {k: v for k, v in env.items() if k != "seed"},
           "workloads": {}}
    for w in names:
        reports = [r for r, _ in runs[w]]
        _, traced_last = bench(w, args.seeds[0], seconds, 1)
        reasons = Counter(f"{f['op']}: {f['reason'].split(':')[0]}"
                          for r in reports for f in r["failures"])
        row["workloads"][w] = {
            "why": next(x["why"] for x in spec["workloads"] if x["name"] == w),
            "end_to_end": {
                m["name"]: spread_row([last["metrics"][m["name"]]["value"]
                                       for _, last in runs[w]], m["unit"])
                for m in spec["end_to_end"]},
            "raw_wall": {k: spread_row([r["raw"][k] for r in reports], u)
                         for k, u in (("ops_per_s", "1/s"), ("latency_p50_s", "s"),
                                      ("latency_tail_s", "s"), ("setup_s", "s"),
                                      ("reference_s", "s"), ("setup_reference_s", "s"))},
            "attempted": sum(last["attempted"] for _, last in runs[w]),
            "failed": sum(last["failed"] for _, last in runs[w]),
            "all_correct": all(last["correct"] for _, last in runs[w]),
            "samples_per_run": [r["samples"] for r in reports],
            "tail_percentile_per_run": [r["latency_tail_percentile"] for r in reports],
            "failures_by_op": dict(sorted(reasons.items())),
            "per_layer_seed": args.seeds[0],
            "per_layer": {k: v["value"] for k, v in traced_last["metrics"].items()},
        }

    rows = json.loads(OUT.read_text()) if OUT.exists() else []
    rows.append(row)
    OUT.write_text(json.dumps(rows, indent=1) + "\n")
    for w, data in row["workloads"].items():
        print(w, " ".join(f"{k}={v['median']:.4g} (spread {v['spread']:.3f})"
                          for k, v in data["end_to_end"].items()))


if __name__ == "__main__":
    main()
