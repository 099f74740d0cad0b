"""Subprocess entry points of the benchmark.

    child.py setup <workload> <seed>
        Run one workload's set-up in a fresh interpreter (timed by the parent
        as ``setup_s``).
    child.py cli <spans.json> <spawn time> <sparsedyn CLI arguments...>
        Run the CLI with tracing installed and write its spans to
        ``spans.json``; the spawn time is the parent's ``perf_counter``
        reading just before it started this process.
"""

from time import perf_counter

STARTED = perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def traced_cli(out: str, spawned: float, argv: list[str]) -> int:
    import spans

    tracer = spans.Tracer()
    tracer.add("process.start", spawned, STARTED)
    spans.traced_import(tracer, "sparsedyn.cli")
    import sparsedyn.cli as cli

    with spans.installed(tracer), tracer.span("cli.main"):
        code = cli.main(argv)
    spans.write_spans(tracer, out)
    return code


def setup(workload: str, seed: str) -> int:
    import workloads

    ctx = workloads.Ctx(seed=int(seed), work=Path.cwd())
    workloads.WORKLOADS[workload].prepare(ctx, None)
    return 0


if __name__ == "__main__":
    mode, args = sys.argv[1], sys.argv[2:]
    if mode == "cli":
        sys.exit(traced_cli(args[0], float(args[1]), args[2:]))
    sys.exit(setup(*args))
