#!/usr/bin/env python3
"""Run the benchmark once per seed and report each metric's spread.

Run from the root of a checkout:

    python3 perfbench/spread.py --workloads ks-cli,lorenz-batch --seeds 1-10
    python3 perfbench/spread.py --seeds 1-10 --out summary.json
    python3 perfbench/spread.py --seeds 1-10 --compare perfbench/baseline.json

For every workload and end-to-end metric it prints the median of the runs,
their quartiles (``statistics.quantiles(values, n=4)``) and the spread
``(q3 - q1) / median``, next to the metric's bound from BENCHMARK.json.
``--compare`` also prints how far each median moved from another summary's,
as a share of that summary's median, signed so that positive is worse.
One traced run per workload (on the first seed) adds the per-layer
metrics to the summary.  Runs are sequential, so that they do not compete
for the cores.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int = 0) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    q1, _, q3 = quantiles(values, n=4)
    mid = median(values)
    return {"values": values, "median": mid, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / mid}


def main(argv=None) -> int:
    benchmark = json.loads(Path("BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in benchmark["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=benchmark["run_seconds"])
    parser.add_argument("--out", help="write the summary as JSON")
    parser.add_argument("--compare", help="a summary written earlier by --out")
    args = parser.parse_args(argv)

    metrics = {m["name"]: m for m in benchmark["end_to_end"]}
    other = json.loads(Path(args.compare).read_text()) if args.compare else None
    import machine

    summary = {"seconds": args.seconds,
               "environment": machine.describe(Path.cwd(), Path.cwd() / "src"),
               "bounds": {name: m["bound"] for name, m in metrics.items()},
               "workloads": {}}
    for workload in args.workloads.split(","):
        seeds = parse_seeds(args.seeds)
        runs = [run_once(workload, seed, args.seconds) for seed in seeds]
        traced = run_once(workload, seeds[0], args.seconds, trace=1)
        rows = {name: summarize([r["metrics"][name]["value"] for r in runs])
                for name in metrics}
        summary["workloads"][workload] = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "correct": all(r["correct"] for r in runs),
            "metrics": rows,
            "per_layer_seed": seeds[0],
            "per_layer": {name: m["value"] for name, m in traced["metrics"].items()},
        }
        print(f"{workload}: {len(runs)} runs, "
              f"{summary['workloads'][workload]['failed']} failed operations")
        for name, row in rows.items():
            bound = metrics[name]["bound"]
            line = (f"  {name:22s} median {row['median']:.6g} "
                    f"q1 {row['q1']:.6g} q3 {row['q3']:.6g} "
                    f"spread {row['spread']:.4f} (bound {bound}, third {bound / 3:.4f})")
            if other is not None:
                ref = other["workloads"][workload]["metrics"][name]["median"]
                sign = 1.0 if metrics[name]["better"] == "lower" else -1.0
                line += f" moved {sign * (row['median'] - ref) / ref:+.4f}"
            print(line, flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
