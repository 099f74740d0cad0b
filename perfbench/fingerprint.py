#!/usr/bin/env python3
"""Record ``fingerprint.json``: the outputs the benchmark's checks compare to.

Run from the root of a checkout, at the commit whose answers are the
reference:

    python3 perfbench/fingerprint.py

For each KS seed in ``KS_SEEDS`` it runs one ``ks-sweep`` operation, and
for each Lorenz seed in ``LORENZ_SEEDS`` one ``lorenz-batch`` operation with
that seed, and records every fit's support, nonzero coefficients and score
or residual in ``fingerprint.json`` next to this file.  Every operation must
also pass the fixed accuracy limits.  ``ks-cli`` is checked against the
``stlsq`` entry of its seed, which fits the same problem.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = Path(__file__).with_name("fingerprint.json")
KS_SEEDS = range(16)
# The first 64 operations of a ``lorenz-batch`` run with ``--seed 0``.
LORENZ_SEEDS = range(64)


def main() -> int:
    import machine

    machine.pin(SRC)
    import workloads

    work = ROOT / ".perfbench" / "work" / "fingerprint"
    work.mkdir(parents=True, exist_ok=True)
    recorded = {"ks": {}, "lorenz": {}}
    try:
        for group, wl, seeds in (("ks", workloads.WORKLOADS["ks-sweep"], KS_SEEDS),
                                 ("lorenz", workloads.WORKLOADS["lorenz-batch"],
                                  LORENZ_SEEDS)):
            ctx = None
            for seed in seeds:
                if ctx is None or group == "ks":
                    ctx = workloads.Ctx(seed=seed, work=work)
                    wl.prepare(ctx, None)
                ctx.seed = seed
                errors, entries = wl.verify(ctx, 0, wl.op(ctx, 0, None))
                recorded[group][str(seed)] = entries
                print(f"{group} seed {seed}: max coefficient error {max(errors):.3g}",
                      flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    groups = []
    for group, seeds in recorded.items():
        rows = ",\n".join(f"  {json.dumps(seed)}: {json.dumps(entries)}"
                           for seed, entries in seeds.items())
        groups.append(f"{json.dumps(group)}: {{\n{rows}\n}}")
    OUT.write_text("{" + ",\n".join(groups) + "}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
