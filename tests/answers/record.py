#!/usr/bin/env python3
"""Record ``corpus.json``: the answers every pipeline path must keep.

Run from the root of a checkout, at the commit whose answers are the
reference:

    PYTHONPATH=src python3 tests/answers/record.py

Each case in ``CASES`` runs one small fit, implicit sweep, score, prediction,
path or simulation on data from a closed-form field or an in-package
generator, and returns its answers: supports, coefficients, residuals,
scores and the deterministic diagnostics.  ``tests/test_answers.py`` reruns
every case and compares it with the recorded entry: supports, names, flags
and counts exactly, and every number within 1e-10 relative (see
``same_answers``).  A case declares the specs it uses, so the test can check
that the corpus covers every tagged spec class of the config codec.

Re-recording changes the reference; say which entries moved, by how much
and why.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from pathlib import Path
from typing import Callable

import numpy as np

from sparsedyn import (
    FROLS,
    KS,
    PDE,
    SR3,
    SSR,
    STLSQ,
    BenchmarkSpec,
    Coefficients,
    Concat,
    Custom,
    Dataset,
    EnsembleSpec,
    FiniteDifference,
    FittedModel,
    Fourier,
    Grid,
    InputSubset,
    Lorenz,
    Polynomial,
    Problem,
    SavitzkyGolay,
    Spectral,
    Tensor,
    TrajectoryCollection,
    WeakPDE,
    canonical_library,
    fit,
    fit_implicit,
    generate,
    predict,
    score,
    simulate,
    solve_path,
    split_train_test,
    verify_residual,
)

OUT = Path(__file__).with_name("corpus.json")
# Numbers agree when |got - want| <= RTOL |want| + ATOL_SHARE max|want|,
# the max taken over the outermost list holding them: relative per entry,
# with rounding noise far below its array's scale forgiven.
RTOL = 1e-10
ATOL_SHARE = 1e-14
# Every PRED_STEP-th row of a prediction is recorded.
PRED_STEP = 37

CASES: dict[str, tuple[tuple, Callable]] = {}


def case(*specs):
    """Register the decorated function as the case of its name; it is
    called with ``specs``, the specs it declares it uses."""

    def register(fn):
        CASES[fn.__name__] = (specs, fn)
        return fn

    return register


def run(name: str):
    specs, fn = CASES[name]
    return plain(fn(*specs))


# ---------------------------------------------------------------------------
# data: in-package generators and closed-form fields
# ---------------------------------------------------------------------------

LORENZ = BenchmarkSpec(Lorenz(t_span=2.0, dt=0.002), noise_level=0.01, seed=3)
KS_SMALL = BenchmarkSpec(
    KS(length=22.0, n_grid=64, t_span=20.0, dt_save=0.25, dt=0.05, burn_in=10.0), seed=2
)


@functools.lru_cache(maxsize=None)
def generated(spec: BenchmarkSpec):
    return generate(spec)


def rotation(T: int = 300, t_max: float = 6.0, t=None, derivatives: bool = False) -> Dataset:
    """q = (cos t, sin t), so q_t = (-q1, q0)."""
    t = np.linspace(0.0, t_max, T) if t is None else t
    states = np.column_stack([np.cos(t), np.sin(t)])
    derivs = np.column_stack([-states[:, 1], states[:, 0]]) if derivatives else None
    return Dataset(grid=Grid(t), states=states, derivatives=derivs)


def forced() -> Dataset:
    """q_t = -q + u with u = cos t and q(0) = 1."""
    t = np.linspace(0.0, 8.0, 400)
    q = 0.5 * (np.cos(t) + np.sin(t)) + 0.5 * np.exp(-t)
    return Dataset(grid=Grid(t), states=q[:, None], controls=np.cos(t)[:, None])


def heat_2d() -> Dataset:
    """Three heat modes on a periodic square, q = exp(-t/2) sin x
    + exp(-2t) cos 2y + exp(-t) sin x cos y, so q_t = (q_xx + q_yy) / 2 and
    q is no combination of q_xx and q_yy."""
    x = np.linspace(0.0, 2 * np.pi, 16, endpoint=False)
    t = np.linspace(0.0, 1.0, 30)
    sx, cy, c2y = np.sin(x)[:, None, None], np.cos(x)[None, :, None], np.cos(2 * x)[None, :, None]
    field = np.exp(-t / 2) * sx + np.exp(-2 * t) * c2y + np.exp(-t) * sx * cy
    return Dataset(grid=Grid(t, (x, x)), states=field[..., None])


# ---------------------------------------------------------------------------
# answers
# ---------------------------------------------------------------------------


def plain(obj):
    """JSON-ready copy: arrays become lists, non-finite floats strings."""
    if isinstance(obj, dict):
        return {str(k): plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return plain(obj.tolist())
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj) if math.isfinite(obj) else repr(float(obj))
    return obj


def model_answers(model) -> dict:
    out = {
        "names": model.feature_names,
        "targets": model.target_names,
        "support": model.coefficients.support,
        "xi": model.xi,
        "residuals": model.coefficients.residuals,
        "diagnostics": model.diagnostics,
    }
    if model.ensemble is not None:
        out["ensemble"] = {
            "inclusion_probability": model.ensemble.inclusion_probability,
            "iqr": model.ensemble.iqr,
            "n_failed": model.ensemble.n_failed,
        }
    return out


def scored(model, test) -> dict:
    return {
        **model_answers(model),
        "r2": score(model, test),
        "rmse": score(model, test, "rmse"),
    }


# ---------------------------------------------------------------------------
# cases: every path from data to a library design, then the solvers
# ---------------------------------------------------------------------------


@case(LORENZ, Polynomial(2), SavitzkyGolay(window=21, poly_order=3), STLSQ(threshold=0.3))
def lorenz_stlsq(data, library, diff, opt):
    train, test = split_train_test(generated(data)[0], 0.6)
    return scored(fit(train, library, diff, opt), test)


@case(Polynomial(1), FiniteDifference(order=4), SR3(threshold=0.05))
def two_trajectories(library, diff, opt):
    data = TrajectoryCollection((rotation(), rotation(T=200, t_max=3.0)))
    return model_answers(fit(data, library, diff, opt))


@case(Polynomial(1), FiniteDifference(order=4), STLSQ(threshold=0.05, ridge=0.0))
def controls(library, diff, opt):
    train, test = split_train_test(forced(), 0.7)
    return scored(fit(train, library, diff, opt), test)


@case(Polynomial(2), FiniteDifference(), STLSQ(threshold=0.05, ridge=0.0))
def precomputed_derivatives(library, diff, opt):
    return model_answers(fit(rotation(derivatives=True), library, diff, opt))


@case(Polynomial(2), FiniteDifference(order=4), FROLS())
def nonuniform_time(library, diff, opt):
    t = 6.0 * np.linspace(0.0, 1.0, 300) ** 1.5
    return model_answers(fit(rotation(t=t), library, diff, opt))


@case(Polynomial(2), Spectral(), STLSQ(threshold=0.05, ridge=0.0))
def spectral_targets(library, diff, opt):
    # q = (cos t + 0.3 cos 3t, sin t) over exactly one period, the right
    # endpoint left out: periodic as sampled, and q0_t is not in the library
    t = np.linspace(0.0, 2 * np.pi, 128, endpoint=False)
    states = np.column_stack([np.cos(t) + 0.3 * np.cos(3 * t), np.sin(t)])
    data = Dataset(grid=Grid(t), states=states)
    return scored(fit(data, library, diff, opt), data)


@case(
    PDE(2, ("x", "y"), multiply_by=Polynomial(1, include_bias=False), diff=Spectral()),
    FiniteDifference(order=4),
    STLSQ(threshold=0.05, ridge=0.0),
)
def pde_2d(library, diff, opt):
    train, test = split_train_test(heat_2d(), 0.6)
    model = fit(train, library, diff, opt)
    return {**scored(model, test), "predict": predict(model, test)[::3, ::3, ::3]}


@case(KS_SMALL, SavitzkyGolay(window=5, poly_order=3), STLSQ(threshold=0.1, ridge=0.05))
def ks_canonical(data, diff, opt):
    dataset, truth = generated(data)
    library = canonical_library(data.system)
    train, test = split_train_test(dataset, 0.6)
    out = scored(fit(train, library, diff, opt), test)
    out["verify_residual"] = verify_residual(dataset, truth, library, diff)
    return out


@case(
    KS_SMALL,
    canonical_library(KS()),
    SavitzkyGolay(window=5, poly_order=3),
    SSR(),
    EnsembleSpec(n_models=5, n_library_drop=1, seed=4),
)
def ks_ssr_normalized_ensemble(data, library, diff, opt, ensemble):
    train, test = split_train_test(generated(data)[0], 0.6)
    model = fit(train, library, diff, opt, ensemble=ensemble, normalize_columns=True)
    return scored(model, test)


@case(
    LORENZ,
    WeakPDE(inner=Polynomial(2), n_subdomains=40, subdomain_size=(101,), seed=5),
    FiniteDifference(),
    STLSQ(threshold=0.2),
)
def weak_ode(data, library, diff, opt):
    train, test = split_train_test(generated(data)[0], 0.6)
    model = fit(train, library, diff, opt)
    return {**scored(model, test), "predict": predict(model, test)[::PRED_STEP]}


@case(
    KS_SMALL,
    WeakPDE(
        inner=PDE(4, ("x",), multiply_by=Polynomial(2, include_bias=False), diff=Spectral()),
        n_subdomains=60,
        subdomain_size=(21, 15),
        seed=6,
    ),
    FiniteDifference(),
    STLSQ(threshold=0.1, ridge=0.0),
)
def weak_pde(data, library, diff, opt):
    train, test = split_train_test(generated(data)[0], 0.6)
    return scored(fit(train, library, diff, opt), test)


@case(
    LORENZ,
    Concat((Polynomial(1), Fourier(n_frequencies=2))),
    SavitzkyGolay(window=21, poly_order=3),
    SR3(threshold=0.1, regularizer="l1"),
)
def fourier_concat(data, library, diff, opt):
    train, test = split_train_test(generated(data)[0], 0.6)
    model = fit(train, library, diff, opt, normalize_columns=True)
    return {**scored(model, test), "predict": predict(model, test)[::PRED_STEP]}


@case(
    Concat((Polynomial(1), Custom((("exp", np.exp), ("tanh", np.tanh))))),
    FiniteDifference(order=4),
    FROLS(max_terms=4),
)
def custom(library, diff, opt):
    return model_answers(fit(rotation(), library, diff, opt))


@case(
    Tensor(Polynomial(1), InputSubset(Fourier(1), (1,))),
    SavitzkyGolay(window=11, poly_order=3),
    STLSQ(threshold=0.05, ridge=0.01),
)
def tensor_subset(library, diff, opt):
    train, test = split_train_test(forced(), 0.7)
    return scored(fit(train, library, diff, opt), test)


@case(
    LORENZ,
    Polynomial(2),
    SavitzkyGolay(window=21, poly_order=3),
    STLSQ(threshold=0.3),
    EnsembleSpec(n_models=8, n_library_drop=2, aggregator="mean", seed=9),
)
def ensemble_drop_mean(data, library, diff, opt, ensemble):
    return model_answers(fit(generated(data)[0], library, diff, opt, ensemble=ensemble))


@case(
    LORENZ,
    Polynomial(2),
    SavitzkyGolay(window=21, poly_order=3),
    STLSQ(threshold=0.3),
    EnsembleSpec(n_models=6, row_fraction=0.7, replace=False, seed=11),
)
def ensemble_without_replacement(data, library, diff, opt, ensemble):
    train, test = split_train_test(generated(data)[0], 0.6)
    return scored(fit(train, library, diff, opt, ensemble=ensemble), test)


@case(
    Concat((Polynomial(2), Tensor(Polynomial(0), Polynomial(1, include_bias=False)))),
    STLSQ(threshold=0.01, ridge=0.0),
)
def implicit_duplicate_column(library, opt):
    # "1 q0" and "1 q1" duplicate the columns q0 and q1
    t = np.linspace(0.0, 5.0, 300)
    wave = np.sin(t) + 0.3 * np.sin(3 * t)
    ds = Dataset(grid=Grid(t), states=np.column_stack([wave, np.cos(t)]))
    ranked = fit_implicit(ds, library, opt, ["q0", "q1", "1 q1", "q0 q1"])
    return [
        {"lhs": c.lhs_name, "residual": c.residual, "degenerate": c.degenerate,
         **model_answers(c.model)}
        for c in ranked
    ]


@case(
    Concat((PDE(1, ("t",)), Polynomial(2))),
    FiniteDifference(order=4),
    SSR(),
)
def implicit_derivatives(library, diff, opt):
    ranked = fit_implicit(rotation(), library, opt, ["q0_t", "q1_t", "q0 q1"], diff=diff)
    return [
        {"lhs": c.lhs_name, "residual": c.residual, **model_answers(c.model)}
        for c in ranked
    ]


@case(SSR(), FROLS())
def solve_paths(ssr, frols):
    rng = np.random.default_rng(11)
    theta = rng.standard_normal((120, 6))
    targets = theta[:, [1, 4]] @ np.array([[1.5, 0.0], [0.0, -2.0]])
    targets += 1e-3 * rng.standard_normal(targets.shape)
    problem = Problem(theta=theta, targets=targets)
    return {
        type(spec).__name__: [
            {"size": e.support_size, "residual": e.residual, "xi": e.coefficients.xi}
            for e in solve_path(problem, spec)
        ]
        for spec in (ssr, frols)
    }


# xi[q1, q0_t] + xi[q0, q1_t] = 0, the rotation's antisymmetry, on vec(xi)
# in target-major order
ANTISYMMETRY = (np.array([[0.0, 1.0, 1.0, 0.0]]), np.zeros(1))


@case(
    Polynomial(1, include_bias=False),
    FiniteDifference(order=4),
    SR3(threshold=0.01, constraints=ANTISYMMETRY),
)
def sr3_constrained(library, diff, opt):
    return model_answers(fit(rotation(), library, diff, opt))


@case(LORENZ, Polynomial(2), SavitzkyGolay(window=21, poly_order=3), STLSQ(threshold=0.3))
def simulate_fit(data, library, diff, opt):
    dataset = generated(data)[0]
    model = fit(dataset, library, diff, opt)
    sim = simulate(model, dataset.states[0], dataset.grid.time_axis[:200])
    # q_t = 1 + q + q^2 in every state leaves any bound in finite time
    names = ("1", "q0", "q1", "q0^2", "q0 q1", "q1^2")
    ones = Coefficients(np.ones((6, 2)), names, np.zeros(2))
    unstable = FittedModel(ones, library, diff, ("q0_t", "q1_t"))
    blow = simulate(unstable, [1.0, 1.0], np.linspace(0.0, 5.0, 50))
    return {
        "states": sim.states[::10],
        "n_rhs_evals": sim.n_rhs_evals,
        "blow_up": {"blew_up": blow.blew_up, "t": blow.t, "n_rhs_evals": blow.n_rhs_evals},
    }


# ---------------------------------------------------------------------------
# comparison
# ---------------------------------------------------------------------------


def _floats(obj):
    if isinstance(obj, list):
        for v in obj:
            yield from _floats(v)
    elif isinstance(obj, dict):
        for v in obj.values():
            yield from _floats(v)
    elif isinstance(obj, float):
        yield obj


def same_answers(got, want, path: str = "", scale: float | None = None) -> list[str]:
    """Where ``got`` differs from the recorded ``want``: every key, length,
    string, flag and count exactly, every finite number within ``RTOL``
    relative (plus ``ATOL_SHARE`` of the largest magnitude in its outermost
    list)."""
    if scale is None and isinstance(want, list):
        scale = max((abs(v) for v in _floats(want)), default=0.0)
    if isinstance(want, dict):
        if not isinstance(got, dict) or got.keys() != want.keys():
            return [f"{path}: keys {sorted(got) if isinstance(got, dict) else got!r} "
                    f"!= {sorted(want)}"]
        return [d for k in want for d in same_answers(got[k], want[k], f"{path}.{k}", scale)]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: {got!r} != {want!r}"]
        return [d for i, (g, w) in enumerate(zip(got, want))
                for d in same_answers(g, w, f"{path}[{i}]", scale)]
    if isinstance(want, float) and isinstance(got, float) and type(got) is type(want):
        tol = RTOL * abs(want) + ATOL_SHARE * (abs(want) if scale is None else scale)
        return [] if abs(got - want) <= tol else [f"{path}: {got!r} != {want!r}"]
    if type(got) is not type(want) or got != want:
        return [f"{path}: {got!r} != {want!r}"]
    return []


def main() -> int:
    rows = []
    for name in CASES:
        rows.append(f"  {json.dumps(name)}: {json.dumps(run(name), sort_keys=True)}")
        print(f"recorded {name}", flush=True)
    OUT.write_text("{\n" + ",\n".join(rows) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
