#!/usr/bin/env python3
"""sparsedyn benchmark: one closed-loop client running one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ks-sweep --seed 0 --seconds 20 --trace 0

Set-up runs first (with ``--trace 0`` it is also timed five times in fresh
interpreters, for ``setup_s``).  Then one warm-up operation runs, and
operations follow back to back until ``--seconds`` have passed.  Every
operation's output is checked; an operation that raises, exits non-zero or
fails its check counts as failed.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced operations and prints the per-layer metrics of the traced
ones (see ``spans.py``).  Either way the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The full record (environment, every operation's latency and
check, and in traced runs every span) is written under ``.perfbench/results``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import traceback
from contextlib import nullcontext
from pathlib import Path
from statistics import median
from time import perf_counter

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPS = 5
TAIL_BEYOND = 10
MIN_WALL_GAP_FRAC = 1e-3

E2E_UNITS = {
    "setup_s": "s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "throughput_ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("ks-cli", "ks-sweep", "lorenz-batch"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def tail_latency(samples: list[float]) -> tuple[float, float]:
    """Highest nearest-rank percentile with at least 10 samples above it,
    and that percentile; never below the median (with 20 or fewer samples no
    higher percentile qualifies)."""
    ordered = sorted(samples)
    k = len(ordered) - TAIL_BEYOND - 1
    if k <= (len(ordered) - 1) / 2:
        return median(ordered), 50.0
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def run_ops(wl, ctx, seconds: float, tracer) -> list[dict]:
    """Warm-up operation, then operations until ``seconds`` have passed."""
    import spans

    records: list[dict] = []
    deadline = None
    index = 0
    while True:
        traced = tracer is not None and index % 2 == 1
        rec = {"index": index, "warmup": index == 0, "traced": traced}
        t0 = perf_counter()
        try:
            if traced:
                tracer.op = index
                with spans.installed(tracer) if wl.in_process else nullcontext():
                    t0 = perf_counter()
                    with tracer.span("bench.op"):
                        result = wl.op(ctx, index, tracer)
                    t1 = perf_counter()
            else:
                t0 = perf_counter()
                result = wl.op(ctx, index, None)
                t1 = perf_counter()
            rec["latency_s"] = t1 - t0
            rec["coef_rel_err"] = wl.check(ctx, index, result)
            rec["ok"] = True
        except Exception as exc:
            # One failed operation is counted, reported, and measuring goes on.
            rec["ok"] = False
            rec.setdefault("latency_s", perf_counter() - t0)
            rec["error"] = "".join(traceback.format_exception_only(exc)).strip()
            traceback.print_exc(file=sys.stderr)
        records.append(rec)
        index += 1
        if deadline is None:
            deadline = perf_counter() + seconds
        elif perf_counter() >= deadline and index >= (4 if tracer else 2):
            return records


def end_to_end(records, setup_samples, peak_rss_kb) -> tuple[dict, dict]:
    measured = [r for r in records if not r["warmup"]]
    timed = [r["latency_s"] for r in measured]
    ok = [r["latency_s"] for r in measured if r["ok"]]
    latencies = ok or timed
    tail, pct = tail_latency(latencies)
    return {
        "setup_s": median(setup_samples),
        "latency_p50_s": median(latencies),
        "latency_tail_s": tail,
        # Failed operations cost time too, so they count in the denominator.
        "throughput_ops_per_s": len(ok) / sum(timed),
        "peak_rss_mb": peak_rss_kb / 1024.0,
    }, {"tail_percentile": pct, "samples": len(latencies)}


def per_layer(records, tracer) -> dict:
    import spans

    measured = [r for r in records if not r["warmup"]]
    traced = [r for r in measured if r["traced"] and r["ok"]]
    plain = [r for r in measured if not r["traced"] and r["ok"]]
    overhead = (median(r["latency_s"] for r in traced)
                / median(r["latency_s"] for r in plain) - 1.0) if traced and plain else 0.0
    # Each operation's spans must account for its measured latency, short of
    # it by no more than the tracing overhead, or 0.1% when noise makes the
    # overhead read lower.
    values = spans.layer_metrics(
        tracer, {r["index"]: r["latency_s"] for r in traced}, "setup",
        tolerance=max(overhead, MIN_WALL_GAP_FRAC),
    ) if traced else {name: 0.0 for name in spans.LAYER_METRICS}
    values["trace.overhead_frac"] = overhead
    values["check.failed_frac"] = sum(not r["ok"] for r in records) / len(records)
    errors = [e for r in records if r["ok"] for e in r["coef_rel_err"]]
    values["check.coef_rel_err"] = median(errors) if errors else 0.0
    return values


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "sparsedyn" / "__init__.py").is_file():
        print(f"error: no sparsedyn sources under {SRC}; run from the root of "
              "a sparsedyn checkout", file=sys.stderr)
        return 2

    import machine

    machine.pin(SRC)
    import spans
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    tag = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    work = OUT / "work" / f"{tag}-{os.getpid()}"
    work.mkdir(parents=True)
    ctx = workloads.Ctx(seed=args.seed, work=work)
    tracer = spans.Tracer() if args.trace else None
    setup_samples: list[float] = []
    try:
        if tracer is None:
            for _ in range(SETUP_REPS):
                argv_setup = wl.setup_argv(ctx)
                t0 = perf_counter()
                code, _ = workloads.run_child(argv_setup, work / "setup.log")
                setup_samples.append(perf_counter() - t0)
                if code != 0:
                    raise RuntimeError(
                        f"set-up exited {code}: {(work / 'setup.log').read_text()[-500:]}")
            wl.prepare(ctx, None)
        else:
            tracer.op = "setup"
            with tracer.span("bench.setup"):
                wl.prepare(ctx, tracer)
        records = run_ops(wl, ctx, args.seconds, tracer)
        peak_rss_kb = (max(ctx.state.get("child_rss_kb", [0])) if not wl.in_process
                       else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(not r["ok"] for r in records)
    if tracer is None:
        values, notes = end_to_end(records, setup_samples, peak_rss_kb)
        units = E2E_UNITS
    else:
        values, notes = per_layer(records, tracer), {}
        units = spans.LAYER_METRICS
    env = machine.describe(ROOT, SRC)
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "setup_samples_s": setup_samples,
              "operations": records, "metrics": values, "notes": notes}
    (results / f"{tag}.json").write_text(json.dumps(record, indent=1))
    if tracer is not None:
        spans.write_spans(tracer, results / f"{tag}.spans.json")

    measured = sum(not r["warmup"] for r in records)
    print(f"# {wl.name} seed={args.seed} trace={args.trace}: {len(records)} operations "
          f"({measured} measured, 1 warm-up), {failed} failed; "
          f"failed_frac={failed / len(records):.4g}")
    print(f"# env: {json.dumps(env, sort_keys=True)}")
    for name, unit in units.items():
        extra = ""
        if name == "latency_tail_s":
            extra = f"  (p{notes['tail_percentile']:.0f} of {notes['samples']} samples)"
        print(f"# {name:28s} {values[name]:.6g} {unit}{extra}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
