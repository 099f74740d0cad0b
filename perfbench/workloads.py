"""The benchmark's three workloads: set-up, one operation, and its check.

Every input is made by ``sparsedyn.generate`` from the run's seed.  The
package is imported lazily (inside ``prepare``), so that the set-up time and
the traced import span include it, and functions are always looked up as
``sd.<name>`` at call time, so that the tracer's rebinding sees the calls.

Each check raises ``CheckFailed`` when an operation's output is wrong and
otherwise returns the relative coefficient errors of its fits.  On a seed
recorded in ``fingerprint.json`` the supports must equal the recorded ones
and coefficients, scores and residuals must agree within 1e-10.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
FINGERPRINT = HERE / "fingerprint.json"
FINGERPRINT_TOL = 1e-10
CHILD_TIMEOUT_S = 150.0

# Fixed accuracy limits, met on every seed with a wide margin.
KS_COEF_LIMIT = 1e-2
KS_SCORE_MIN = 0.999
LORENZ_COEF_LIMIT = {"ensemble": 0.05, "plain": 1.0, "weak": 0.4}
IMPLICIT_RESIDUAL_LIMIT = 0.25
SIMULATE_ERR_LIMIT = 0.25
SIMULATE_STEPS = 1000

KS_DISCOVERY = {
    "schema": 1,
    "train_fraction": 0.6,
    "diff": {"method": "sg", "window": 5, "poly_order": 3},
    "library": {
        "type": "pde", "derivative_order": 4, "axes": ["x"],
        "multiply_by": {"type": "polynomial", "degree": 2, "include_bias": False},
        "diff": {"method": "spectral"},
    },
    "optimizer": {"type": "stlsq", "threshold": 0.1, "ridge": 0.05},
    "ensemble": None,
    "seed": 0,
    "precision": 3,
}


class CheckFailed(Exception):
    """An operation finished but its output is wrong."""


@dataclass
class Ctx:
    seed: int
    work: Path
    state: dict = field(default_factory=dict)


def run_child(argv: list[str], log: Path, timeout: float = CHILD_TIMEOUT_S):
    """Run a subprocess to completion; returns (exit code, peak RSS in KiB)."""
    with open(log, "wb") as err:
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss


def _log_tail(log: Path) -> str:
    return log.read_text(errors="replace").strip()[-500:]


def rel_err(xi, truth_xi) -> float:
    return float(np.linalg.norm(np.asarray(xi) - truth_xi) / np.linalg.norm(truth_xi))


# ---------------------------------------------------------------------------
# fingerprints
# ---------------------------------------------------------------------------


def entry(xi, **values) -> dict:
    """Fingerprint of one fit: support bits, nonzero coefficients, scalars."""
    flat = np.asarray(xi, dtype=float).ravel()
    return {
        "support": "".join("1" if v != 0.0 else "0" for v in flat),
        "xi": [[int(i), float(flat[i])] for i in np.flatnonzero(flat)],
        **{k: float(v) for k, v in values.items()},
    }


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= FINGERPRINT_TOL * max(1.0, abs(b))


def compare(label: str, got: dict, ref: dict) -> None:
    if got["support"] != ref["support"]:
        raise CheckFailed(f"{label}: support {got['support']} != recorded {ref['support']}")
    for (i, a), (_, b) in zip(got["xi"], ref["xi"]):
        if not _close(a, b):
            raise CheckFailed(f"{label}: coefficient {i} = {a!r}, recorded {b!r}")
    for key, b in ref.items():
        if key not in ("support", "xi") and not _close(got[key], b):
            raise CheckFailed(f"{label}: {key} = {got[key]!r}, recorded {b!r}")


def load_fingerprints() -> dict:
    return json.loads(FINGERPRINT.read_text())


def check_fingerprint(ctx: Ctx, group: str, key: int, entries: dict) -> None:
    recorded = ctx.state.setdefault("fingerprints", load_fingerprints())
    ref = recorded[group].get(str(key))
    if ref is None:
        return
    for name, got in entries.items():
        compare(f"{group} seed {key} {name}", got, ref[name])


def check_finite(name: str, xi) -> None:
    if not np.all(np.isfinite(xi)):
        raise CheckFailed(f"{name}: non-finite coefficients")


class Workload:
    """A workload: ``prepare`` (set-up in this process), ``setup_argv`` (the
    same set-up in a fresh interpreter, for timing), ``op`` and ``verify``.
    ``in_process`` says whether operations run in this process, where the
    tracer rebinds calls, or in a child that traces itself."""

    name: str
    in_process: bool
    group: str

    def fingerprint_key(self, ctx: Ctx, index: int) -> int:
        return ctx.seed

    def check(self, ctx: Ctx, index: int, result) -> list[float]:
        """Verify one operation's output; returns its coefficient errors."""
        errors, entries = self.verify(ctx, index, result)
        check_fingerprint(ctx, self.group, self.fingerprint_key(ctx, index), entries)
        return errors


# ---------------------------------------------------------------------------
# Kuramoto-Sivashinsky
# ---------------------------------------------------------------------------


def verify_ks_fits(ctx: Ctx, fits: dict) -> tuple[list[float], dict]:
    """fits: name -> (xi, score).  Returns the relative coefficient errors
    and the fingerprint entries."""
    truth = ctx.state["truth_xi"]
    errors, entries = [], {}
    for name, (xi, score) in fits.items():
        check_finite(name, xi)
        err = rel_err(xi, truth)
        if not err <= KS_COEF_LIMIT:
            raise CheckFailed(f"{name}: coefficient error {err:.3g} > {KS_COEF_LIMIT}")
        if not score >= KS_SCORE_MIN:
            raise CheckFailed(f"{name}: held-out r2 {score!r} < {KS_SCORE_MIN}")
        errors.append(err)
        entries[name] = entry(xi, score=score)
    return errors, entries


class KsCli(Workload):
    name = "ks-cli"
    in_process = False
    group = "ks"

    def _paths(self, ctx: Ctx):
        return ctx.work / "ks_spec.json", ctx.work / "ks_data", ctx.work / "fit.json"

    def setup_argv(self, ctx: Ctx) -> list[str]:
        spec, data, _ = self._paths(ctx)
        spec.write_text(json.dumps({"schema": 1, "system": {"name": "ks"},
                                    "noise_level": 0.0, "seed": ctx.seed}))
        return [sys.executable, "-m", "sparsedyn.cli", "generate",
                "--config", str(spec), "--out", str(data)]

    def prepare(self, ctx: Ctx, tracer) -> None:
        spec, data, cfg = self._paths(ctx)
        if not (data / "meta.json").is_file():
            argv = self.setup_argv(ctx)
            if tracer is not None:
                argv = traced_cli_argv(ctx, argv[3:])
            code, _ = run_child(argv, ctx.work / "setup.log")
            if code != 0:
                raise RuntimeError(f"sparsedyn generate exited {code}: "
                                   f"{_log_tail(ctx.work / 'setup.log')}")
            if tracer is not None:
                graft_child_spans(ctx, tracer)
        truth = json.loads((data / "truth.json").read_text())
        ctx.state["truth_xi"] = np.asarray(truth["coefficients"], dtype=float)
        cfg.write_text(json.dumps({**KS_DISCOVERY, "data": {"path": str(data)},
                                   "output_dir": str(ctx.work / "out")}))

    def op(self, ctx: Ctx, index: int, tracer):
        _, _, cfg = self._paths(ctx)
        log = ctx.work / "op.log"
        tail = ["fit", "--config", str(cfg)]
        if tracer is None:
            code, rss = run_child([sys.executable, "-m", "sparsedyn.cli", *tail], log)
        else:
            code, rss = run_child(traced_cli_argv(ctx, tail), log)
        if code != 0:
            raise RuntimeError(f"sparsedyn fit exited {code}: {_log_tail(log)}")
        out = ctx.work / "out"
        if tracer is not None:
            graft_child_spans(ctx, tracer)
            tracer.current().attrs["bytes_written"] = sum(
                p.stat().st_size for p in out.iterdir())
        ctx.state.setdefault("child_rss_kb", []).append(rss)
        return {"out": out}

    def verify(self, ctx: Ctx, index: int, result):
        out = result["out"]
        try:
            report = json.loads((out / "report.json").read_text())
            xi = np.asarray(report["coefficients"], dtype=float)
            eq_lines = (out / "equations.txt").read_text().splitlines()
            if eq_lines != report["equations"]:
                raise CheckFailed("equations.txt does not match report.json")
            csv_path = out / "prediction_vs_truth.csv"
            with open(csv_path) as fh:
                header = fh.readline().strip()
            if header != "sample,predicted_q0_t,computed_q0_t":
                raise CheckFailed(f"unexpected CSV header {header!r}")
            table = np.loadtxt(csv_path, delimiter=",", skiprows=1)
            n_rows = table.shape[0]
            if n_rows == 0 or n_rows % 1024 or not np.array_equal(
                    table[:, 0], np.arange(n_rows)):
                raise CheckFailed(f"CSV has {n_rows} rows or misnumbered samples")
            pred, actual = table[:, 1], table[:, 2]
            r2 = 1.0 - np.sum((pred - actual) ** 2) / np.sum((actual - actual.mean()) ** 2)
            if abs(r2 - report["score"]) > 1e-9:
                raise CheckFailed(f"CSV r2 {r2!r} != report score {report['score']!r}")
            return verify_ks_fits(ctx, {"stlsq": (xi, report["score"])})
        finally:
            shutil.rmtree(out, ignore_errors=True)


class KsSweep(Workload):
    name = "ks-sweep"
    in_process = True
    group = "ks"

    def setup_argv(self, ctx: Ctx) -> list[str]:
        return [sys.executable, str(CHILD), "setup", self.name, str(ctx.seed)]

    def prepare(self, ctx: Ctx, tracer) -> None:
        import_package(tracer)
        import sparsedyn as sd

        with installed(tracer):
            dataset, truth = sd.generate(sd.BenchmarkSpec(system=sd.KS(), seed=ctx.seed))
            train, test = sd.split_train_test(dataset, 0.6)
        ctx.state.update(train=train, test=test, truth_xi=truth.xi)

    def op(self, ctx: Ctx, index: int, tracer):
        import sparsedyn as sd

        train, test = ctx.state["train"], ctx.state["test"]
        library = sd.canonical_library(sd.KS())
        diff = sd.SavitzkyGolay(window=5, poly_order=3)
        candidates = {
            "stlsq": (sd.STLSQ(threshold=0.1, ridge=0.05), None),
            "sr3": (sd.SR3(), None),
            "ssr": (sd.SSR(), None),
            "frols": (sd.FROLS(), None),
            "ensemble": (sd.STLSQ(threshold=0.1, ridge=0.05),
                         sd.EnsembleSpec(n_models=20, seed=ctx.seed)),
        }
        fits = {}
        for name, (opt, ensemble) in candidates.items():
            model = sd.fit(train, library, diff=diff, opt=opt, ensemble=ensemble)
            fits[name] = (model.xi, sd.score(model, test))
        return fits

    def verify(self, ctx: Ctx, index: int, fits):
        return verify_ks_fits(ctx, fits)


# ---------------------------------------------------------------------------
# Lorenz
# ---------------------------------------------------------------------------


class LorenzBatch(Workload):
    name = "lorenz-batch"
    in_process = True
    group = "lorenz"

    def setup_argv(self, ctx: Ctx) -> list[str]:
        return [sys.executable, str(CHILD), "setup", self.name, str(ctx.seed)]

    def prepare(self, ctx: Ctx, tracer) -> None:
        import_package(tracer)
        import sparsedyn as sd

        with installed(tracer):
            clean, truth = sd.generate(sd.BenchmarkSpec(system=sd.Lorenz()))
        ctx.state.update(clean=clean, truth_xi=truth.xi)

    def fingerprint_key(self, ctx: Ctx, index: int) -> int:
        return ctx.seed + index

    def op(self, ctx: Ctx, index: int, tracer):
        import sparsedyn as sd

        seed = self.fingerprint_key(ctx, index)
        low, _ = sd.generate(sd.BenchmarkSpec(sd.Lorenz(), noise_level=0.01, seed=seed))
        high, _ = sd.generate(sd.BenchmarkSpec(sd.Lorenz(), noise_level=0.10, seed=seed))
        poly = sd.Polynomial(degree=2)
        sg = sd.SavitzkyGolay(window=41, poly_order=3)
        ensembled = sd.fit(low, poly, diff=sg, opt=sd.STLSQ(threshold=0.3),
                           ensemble=sd.EnsembleSpec(n_models=20, seed=seed))
        plain = sd.fit(high, poly, diff=sg, opt=sd.STLSQ(threshold=0.2))
        weak_library = sd.WeakPDE(inner=poly, n_subdomains=200, test_poly_order=4,
                                  subdomain_size=(301,), seed=123)
        weak = sd.fit(high, weak_library, diff=sd.FiniteDifference(),
                      opt=sd.STLSQ(threshold=0.2))
        implicit = sd.fit_implicit(
            low,
            sd.Concat((sd.PDE(1, ("t",)), sd.Polynomial(3))),
            sd.STLSQ(threshold=0.05, ridge=0.0),
            candidate_lhs=["q0_t", "q1_t", "q2_t"],
            diff=sg,
        )
        clean = ctx.state["clean"]
        sim = sd.simulate(ensembled, clean.states[0],
                          clean.grid.time_axis[:SIMULATE_STEPS])
        return {
            "fits": {"ensemble": ensembled.xi, "plain": plain.xi, "weak": weak.xi},
            "implicit": {c.lhs_name: (c.model.xi, c.residual) for c in implicit},
            "sim": sim,
        }

    def verify(self, ctx: Ctx, index: int, result):
        truth = ctx.state["truth_xi"]
        errors, entries = [], {}
        for name, xi in result["fits"].items():
            check_finite(name, xi)
            err = rel_err(xi, truth)
            if not err <= LORENZ_COEF_LIMIT[name]:
                raise CheckFailed(f"{name}: coefficient error {err:.3g} > "
                                  f"{LORENZ_COEF_LIMIT[name]}")
            errors.append(err)
            entries[name] = entry(xi)
        for lhs, (xi, residual) in result["implicit"].items():
            check_finite(f"implicit {lhs}", xi)
            if not residual <= IMPLICIT_RESIDUAL_LIMIT:
                raise CheckFailed(f"implicit {lhs}: residual {residual:.3g} > "
                                  f"{IMPLICIT_RESIDUAL_LIMIT}")
            entries[f"implicit.{lhs}"] = entry(xi, residual=residual)
        sim = result["sim"]
        reference = ctx.state["clean"].states[:SIMULATE_STEPS]
        if sim.blew_up or sim.states.shape != reference.shape:
            raise CheckFailed(f"simulate stopped early: {sim.message}")
        sim_err = rel_err(sim.states, reference)
        if not sim_err <= SIMULATE_ERR_LIMIT:
            raise CheckFailed(f"simulate: trajectory error {sim_err:.3g} > "
                              f"{SIMULATE_ERR_LIMIT}")
        return errors, entries


WORKLOADS = {w.name: w for w in (KsCli(), KsSweep(), LorenzBatch())}


# ---------------------------------------------------------------------------
# tracing helpers shared by the workloads
# ---------------------------------------------------------------------------


def import_package(tracer) -> None:
    import spans

    if tracer is not None:
        spans.traced_import(tracer, "sparsedyn")
    else:
        __import__("sparsedyn")


def installed(tracer):
    import contextlib

    import spans

    return contextlib.nullcontext() if tracer is None else spans.installed(tracer)


def traced_cli_argv(ctx: Ctx, cli_args: list[str]) -> list[str]:
    return [sys.executable, str(CHILD), "cli", str(ctx.work / "spans.json"),
            repr(perf_counter()), *cli_args]


def graft_child_spans(ctx: Ctx, tracer) -> None:
    """Adopt the traced child's spans, and time from the end of its last
    span to its exit (writing spans, interpreter teardown) as
    ``process.exit``."""
    exited = perf_counter()
    path = ctx.work / "spans.json"
    records = json.loads(path.read_text())
    path.unlink()
    tracer.graft(records)
    tracer.add("process.exit", max(r["end"] for r in records), exited)
