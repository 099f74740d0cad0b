"""Span recorder for the traced benchmark run.

Spans are timed from outside the package: while a tracer is installed, every
public function that one ``sparsedyn`` module imports from another (for
example ``sparsedyn.model.evaluate`` or ``sparsedyn.cli.fit``) is rebound to a
wrapper that opens a span named ``<module>.<function>`` around the call.
Nothing under ``src/`` changes, and uninstalling restores the originals.

A span carries a name, start, end, parent span and operation id, plus the
counts recorded at the same boundary.  Spans stay in memory and are written
as JSON when the run ends.  Calls made thousands of times per operation (the
integrator's right-hand side) are folded into their parent span as a
``(count, seconds)`` pair instead of getting a span each.

A span's self time is its duration minus the time its child spans and folded
calls cover.  ``check_nesting`` requires every span to lie within its parent
and no self time to be negative; then the self times of one operation
partition its wall time.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
from contextlib import contextmanager
from pathlib import Path
from statistics import median
from time import perf_counter

PACKAGE = "sparsedyn"
# Slack for float rounding in the nesting check; clock readings are exact.
NESTING_EPS_S = 1e-6
FOLDED = frozenset({"library.evaluate_pointwise"})
SOLVERS = ("stlsq", "sr3", "ssr", "frols")


class Span:
    __slots__ = ("sid", "name", "parent", "op", "t0", "t1", "attrs", "folded")

    def __init__(self, sid, name, parent, op, t0, t1=None, attrs=None, folded=None):
        self.sid = sid
        self.name = name
        self.parent = parent
        self.op = op
        self.t0 = t0
        self.t1 = t1
        self.attrs = attrs if attrs is not None else {}
        self.folded = folded if folded is not None else {}

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.t1 - self.t0

    def to_json(self) -> dict:
        return {
            "id": self.sid,
            "name": self.name,
            "parent": self.parent,
            "op": self.op,
            "start": self.t0,
            "end": self.t1,
            "attrs": self.attrs,
            "folded": self.folded,
        }


class Tracer:
    """In-memory span store with a stack of open spans."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self.op = None

    def open(self, name: str, t0: float | None = None) -> Span:
        parent = self._stack[-1].sid if self._stack else None
        span = Span(len(self.spans), name, parent, self.op,
                    perf_counter() if t0 is None else t0)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span, t1: float | None = None) -> None:
        span.t1 = perf_counter() if t1 is None else t1
        if not self._stack or self._stack.pop() is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    @contextmanager
    def span(self, name: str, t0: float | None = None):
        s = self.open(name, t0)
        try:
            yield s
        finally:
            self.close(s)

    def add(self, name: str, t0: float, t1: float, **attrs) -> Span:
        """Record an already finished span under the current open span."""
        span = self.open(name, t0)
        span.attrs.update(attrs)
        self.close(span, t1)
        return span

    def current(self) -> Span:
        return self._stack[-1]

    def fold(self, name: str, seconds: float) -> None:
        entry = self._stack[-1].folded.setdefault(name, [0, 0.0])
        entry[0] += 1
        entry[1] += seconds

    def graft(self, records: list[dict]) -> None:
        """Adopt spans recorded in a child process under the current span.

        Both processes read the same monotonic clock, so start and end times
        are comparable.
        """
        parent = self._stack[-1].sid
        base = len(self.spans)
        for rec in records:
            self.spans.append(Span(
                base + rec["id"], rec["name"],
                parent if rec["parent"] is None else base + rec["parent"],
                self.op, rec["start"], rec["end"], rec["attrs"], rec["folded"],
            ))

    def to_json(self) -> list[dict]:
        return [s.to_json() for s in self.spans]


# ---------------------------------------------------------------------------
# counts recorded at call boundaries
# ---------------------------------------------------------------------------


def _dir_bytes(path) -> int:
    path = Path(path)
    if path.is_file():
        return path.stat().st_size
    return sum(p.stat().st_size for p in path.iterdir()
               if p.name == "meta.json" or p.suffix == ".f64")


def _count_evaluate(span, args, result):
    span.attrs["weak"] = type(args.get("spec")).__name__ == "WeakPDE"
    span.attrs["theta_bytes"] = int(result.values.nbytes)


def _count_solve(span, args, result):
    problem, spec = args.get("problem"), args.get("spec")
    span.attrs["solver"] = type(spec).__name__.lower()
    span.attrs["theta_bytes"] = int(problem.theta.nbytes)
    span.attrs["targets_bytes"] = int(problem.targets.nbytes)
    span.attrs["iterations"] = int(result.diagnostics.get("iterations", 0))


def _count_ensemble(span, args, result):
    span.attrs["members"] = int(args.get("spec").n_models)
    span.attrs["failed"] = int(result.n_failed)


def _count_load(span, args, result):
    span.attrs["bytes_read"] = _dir_bytes(args.get("path"))


def _count_generate(span, args, result):
    span.attrs["system"] = type(args.get("spec").system).__name__


COUNTERS = {
    "library.evaluate": _count_evaluate,
    "optimize.solve": _count_solve,
    "ensemble.fit_ensemble": _count_ensemble,
    "data.load_dataset": _count_load,
    "systems.generate": _count_generate,
}


def _wrap(tracer: Tracer, name: str, fn):
    if name in FOLDED:
        @functools.wraps(fn)
        def folded(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.fold(name, perf_counter() - t0)
        return folded

    counter = COUNTERS.get(name)
    signature = inspect.signature(fn) if counter else None

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if counter is not None:
            counter(span, signature.bind(*args, **kwargs).arguments, result)
        return result
    return traced


def span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


@contextmanager
def installed(tracer: Tracer):
    """Rebind cross-module imports of package functions to traced wrappers."""
    undo = []
    modules = [m for key, m in list(sys.modules.items())
               if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
    for module in modules:
        for attr, value in list(vars(module).items()):
            if (attr.startswith("_") or not inspect.isfunction(value)
                    or not value.__module__.startswith(PACKAGE + ".")
                    or value.__module__ == module.__name__):
                continue
            undo.append((module, attr, value))
            setattr(module, attr, _wrap(tracer, span_name(value), value))
    try:
        yield
    finally:
        for module, attr, value in undo:
            setattr(module, attr, value)


def traced_import(tracer: Tracer, module: str) -> None:
    """Import ``module`` of the package inside an ``import.sparsedyn`` span."""
    before = len(sys.modules)
    with tracer.span("import.sparsedyn") as span:
        __import__(module)
    span.attrs["modules"] = len(sys.modules) - before


def write_spans(tracer: Tracer, path) -> None:
    import json

    tmp = Path(str(path) + ".tmp")
    tmp.write_text(json.dumps(tracer.to_json()))
    os.replace(tmp, path)


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

# name -> unit, in the order BENCHMARK.json lists them.
LAYER_METRICS = {
    "op.wall_s": "s",
    "trace.overhead_frac": "ratio",
    "process.start_s": "s",
    "process.exit_s": "s",
    "import.wall_s": "s",
    "import.modules": "count",
    "cli.self_s": "s",
    "cli.bytes_written": "bytes",
    "config.self_s": "s",
    "data.self_s": "s",
    "data.load_s": "s",
    "data.bytes_read": "bytes",
    "diff.calls": "count",
    "diff.s": "s",
    "library.calls": "count",
    "library.s": "s",
    "library.weak_s": "s",
    "library.theta_bytes": "bytes_computed",
    "optimize.calls": "count",
    **{f"optimize.{s}_s": "s" for s in SOLVERS},
    "optimize.stlsq.iterations": "count",
    "optimize.sr3.iterations": "count",
    "optimize.theta_bytes": "bytes_computed",
    "ensemble.s": "s",
    "ensemble.self_s": "s",
    "ensemble.members": "count",
    "ensemble.failed": "count",
    "ensemble.useful_ratio": "ratio",
    "ensemble.copied_bytes": "bytes_computed",
    "model.self_s": "s",
    "model.fit_self_s": "s",
    "model.score_s": "s",
    "model.predict_s": "s",
    "model.simulate_s": "s",
    "model.simulate_rhs_evals": "count",
    "model.implicit_s": "s",
    "systems.self_s": "s",
    "systems.ks_generate_s": "s",
    "systems.lorenz_generate_s": "s",
    "bench.self_s": "s",
    "check.failed_frac": "ratio",
    "check.coef_rel_err": "ratio",
}

# Metrics a workload may only exercise during set-up (import and data
# generation on the in-process workloads): taken from the set-up spans when
# no operation records them.
SETUP_FALLBACK = ("import.wall_s", "import.modules",
                  "systems.ks_generate_s", "systems.lorenz_generate_s")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> self time (duration minus children and folded calls)."""
    covered = {s.sid: sum(c[1] for c in s.folded.values()) for s in spans}
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.duration
    return {s.sid: s.duration - covered[s.sid] for s in spans}


class NestingError(RuntimeError):
    """Spans of one operation do not nest, so self times are meaningless."""


def check_nesting(spans: list[Span]) -> dict[int, float]:
    """Require every span to end after it starts and to lie within its
    parent, and no self time to be negative (children that overlap each
    other or whose folded calls exceed their span); returns the self times."""
    by_id = {s.sid: s for s in spans}
    eps = NESTING_EPS_S
    for s in spans:
        if not s.t0 <= s.t1:
            raise NestingError(f"span {s.name} ends before it starts")
        parent = by_id.get(s.parent)
        if parent is not None and not (parent.t0 - eps <= s.t0 and s.t1 <= parent.t1 + eps):
            raise NestingError(
                f"span {s.name} [{s.t0:.6f}, {s.t1:.6f}] lies outside its parent "
                f"{parent.name} [{parent.t0:.6f}, {parent.t1:.6f}]")
    selfs = self_times(spans)
    for s in spans:
        if selfs[s.sid] < -eps:
            raise NestingError(f"span {s.name} has self time {selfs[s.sid]:.3g} s: "
                               "its children overlap or exceed it")
    return selfs


def op_values(spans: list[Span]) -> dict[str, float]:
    """Per-layer values of one operation (or of the set-up)."""
    selfs = check_nesting(spans)
    by_id = {s.sid: s for s in spans}
    v = {name: 0.0 for name in LAYER_METRICS}
    layer_self: dict[str, float] = {}
    for s in spans:
        layer_self[s.layer] = layer_self.get(s.layer, 0.0) + selfs[s.sid]
        for name, (_, secs) in s.folded.items():
            layer = name.split(".", 1)[0]
            layer_self[layer] = layer_self.get(layer, 0.0) + secs
        a = s.attrs
        if s.name == "import.sparsedyn":
            v["import.wall_s"] += s.duration
            v["import.modules"] += a.get("modules", 0)
        elif s.name == "process.start":
            v["process.start_s"] += s.duration
        elif s.name == "process.exit":
            v["process.exit_s"] += s.duration
        elif s.name == "data.load_dataset":
            v["data.load_s"] += s.duration
            v["data.bytes_read"] += a.get("bytes_read", 0)
        elif s.name == "library.evaluate":
            v["library.calls"] += 1
            v["library.theta_bytes"] += a.get("theta_bytes", 0)
            if a.get("weak"):
                v["library.weak_s"] += selfs[s.sid]
        elif s.name == "optimize.solve":
            v["optimize.calls"] += 1
            v["optimize.theta_bytes"] += a.get("theta_bytes", 0)
            solver = a.get("solver")
            if solver in SOLVERS:
                v[f"optimize.{solver}_s"] += selfs[s.sid]
            if solver in ("stlsq", "sr3"):
                v[f"optimize.{solver}.iterations"] += a.get("iterations", 0)
            parent = by_id.get(s.parent)
            if parent is not None and parent.name == "ensemble.fit_ensemble":
                v["ensemble.copied_bytes"] += (a.get("theta_bytes", 0)
                                               + a.get("targets_bytes", 0))
        elif s.name == "ensemble.fit_ensemble":
            v["ensemble.s"] += s.duration
            v["ensemble.members"] += a.get("members", 0)
            v["ensemble.failed"] += a.get("failed", 0)
        elif s.name == "model.fit":
            v["model.fit_self_s"] += selfs[s.sid]
        elif s.name == "model.score":
            v["model.score_s"] += s.duration
        elif s.name == "model.predict":
            v["model.predict_s"] += s.duration
        elif s.name == "model.simulate":
            v["model.simulate_s"] += s.duration
            v["model.simulate_rhs_evals"] += sum(
                c[0] for name, c in s.folded.items() if name in FOLDED)
        elif s.name == "model.fit_implicit":
            v["model.implicit_s"] += s.duration
        elif s.name == "systems.generate":
            system = "ks" if a.get("system") == "KS" else "lorenz"
            v[f"systems.{system}_generate_s"] += s.duration
        if s.layer == "diff":
            v["diff.calls"] += 1
    for layer in ("cli", "config", "data", "ensemble", "model", "systems", "bench"):
        v[f"{layer}.self_s"] = layer_self.get(layer, 0.0)
    v["diff.s"] = layer_self.get("diff", 0.0)
    v["library.s"] = layer_self.get("library", 0.0)
    if v["ensemble.members"]:
        v["ensemble.useful_ratio"] = (
            (v["ensemble.members"] - v["ensemble.failed"]) / v["ensemble.members"])
    roots = [s for s in spans if s.parent is None]
    v["op.wall_s"] = sum(s.duration for s in roots)
    v["cli.bytes_written"] = sum(s.attrs.get("bytes_written", 0) for s in roots)
    return v


def layer_metrics(tracer: Tracer, traced: dict, setup_op,
                  tolerance: float) -> dict[str, float]:
    """Median over traced operations of each per-layer value.

    ``traced`` maps operation id -> latency measured outside the tracer.
    Each operation's spans must nest, and its traced wall time must fall
    short of that latency by at most ``tolerance`` of it.
    """
    by_op: dict = {}
    for s in tracer.spans:
        by_op.setdefault(s.op, []).append(s)
    per_op = []
    for op, latency in traced.items():
        values = op_values(by_op[op])
        gap = latency - values["op.wall_s"]
        if not 0.0 <= gap <= tolerance * latency:
            raise NestingError(
                f"operation {op}: spans cover {values['op.wall_s']:.6f} s of its "
                f"{latency:.6f} s latency (allowed gap {tolerance:.3g} of it)")
        per_op.append(values)
    setup = op_values(by_op[setup_op]) if setup_op in by_op else {}
    out = {name: median(v[name] for v in per_op) for name in LAYER_METRICS}
    for name in SETUP_FALLBACK:
        if out[name] == 0.0 and setup:
            out[name] = setup[name]
    return out
